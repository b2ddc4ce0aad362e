"""Command line front end: reports, exit codes, determinism."""

import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ptensor
from ptensor import Tensor, check_p, check_p0, identity_tensor
from ptensor.cli import EXIT_GOLDEN_FAIL, main
from ptensor.classes import classify_m_tensor
from ptensor.generators import random_tensor, reference_counterexample
from ptensor.tensorio import read_tensor, write_tensor, dumps_canonical, tensor_to_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ref(tmp_path):
    path = tmp_path / "ref.json"
    write_tensor(reference_counterexample(), path)
    return str(path)


def write_identity(tmp_path, m=3, n=2):
    path = tmp_path / "id.json"
    write_tensor(identity_tensor(m, n), path)
    return str(path)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_identity(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", write_identity(tmp_path), "--starts", "6")
    assert code == 0
    report = json.loads(out)
    assert report["classes"]["strictly_diagonally_dominant"]["verdict"] == "CERTIFIED"
    assert report["classes"]["h_tensor"]["label"] == "NONSINGULAR_H"
    assert report["pcheck"]["p"]["verdict"] == "CERTIFIED"
    assert report["pcheck"]["s"]["verdict"] == "CERTIFIED"


def test_analyze_reference(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", write_ref(tmp_path), "--starts", "8")
    assert code == 0
    report = json.loads(out)
    assert report["classes"]["dnn"]["label"] == "DNN_CONSISTENT"
    assert report["pcheck"]["p0"]["verdict"] == "REFUTED"
    assert report["pcheck"]["p0"]["witness"] == [0.0, 1.0, -1.0]
    assert report["eigenpairs"]["all_positive"] is True
    assert report["classes"]["p0_hull"]["verdict"] == "CERTIFIED"


def test_analyze_malformed_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 3
    assert err.strip()


def test_analyze_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 3 and err


def test_analyze_order_7_exits_0_without_traceback(tmp_path):
    """The copositivity grid contracts at any order, so analyze reports on
    an order-7 file instead of failing."""
    path = tmp_path / "order7.json"
    write_tensor(random_tensor(7, 2, 5, symmetric=True), path)
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "ptensor.cli", "analyze", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["classes"]["copositive"]["metrics"]["grid_points"] > 0


# ---------------------------------------------------------------------------
# pcheck


def test_pcheck_p0_reference(tmp_path, capsys):
    code, out, _ = run(capsys, "pcheck", write_ref(tmp_path), "p0")
    assert code == 0
    v = json.loads(out)
    assert v["verdict"] == "REFUTED"
    assert v["witness"] == [0.0, 1.0, -1.0]
    assert v["functional_value"] == -0.5


def test_pcheck_p_negative_identity(tmp_path, capsys):
    path = tmp_path / "neg.json"
    write_tensor(-1.0 * identity_tensor(3, 2), path)
    code, out, _ = run(capsys, "pcheck", str(path), "p")
    assert code == 0
    v = json.loads(out)
    assert v["verdict"] == "REFUTED"
    assert v["witness"] in ([1.0, 0.0], [0.0, 1.0])


def test_pcheck_s_identity(tmp_path, capsys):
    code, out, _ = run(capsys, "pcheck", write_identity(tmp_path), "s")
    assert code == 0
    v = json.loads(out)
    assert v["verdict"] == "CERTIFIED"
    assert v["witness"] == [1.0, 1.0]


def test_pcheck_bad_property_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pcheck", write_identity(tmp_path), "q"])
    assert exc.value.code == 2


def test_pcheck_near_float64_limit_prints_no_overflow_warning(tmp_path):
    """On a (3, 2) tensor of entries +-1e308 the H rule's spectral-radius
    iteration overflows and ends unconverged; check_p and check_p0 raise no
    warning on the way, and pcheck p and p0 exit 0 with nothing on
    stderr."""
    data = np.array([1e308, -1e308, 1e308, 1e308, -1e308, 1e308, 1e308, 1e308]).reshape(2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_p(Tensor(data))
        check_p0(Tensor(data))
    path = tmp_path / "big.json"
    write_tensor(Tensor(data), path)
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    for prop in ("p", "p0"):
        proc = subprocess.run([sys.executable, "-m", "ptensor.cli", "pcheck", str(path), prop],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert json.loads(proc.stdout)["property"] == prop.upper()


# ---------------------------------------------------------------------------
# tcp


def write_instance(tmp_path, A, q, name="inst.json"):
    path = tmp_path / name
    obj = {"tensor": tensor_to_json_dict(A), "q": list(q)}
    path.write_text(dumps_canonical(obj))
    return str(path)


def test_tcp_identity(tmp_path, capsys):
    path = write_instance(tmp_path, identity_tensor(3, 2), [-1.0, -1.0])
    code, out, _ = run(capsys, "tcp", path)
    assert code == 0
    sol = json.loads(out)
    assert sol["status"] == "solved"
    assert max(abs(v - 1.0) for v in sol["x"]) <= 1e-7
    assert sol["natural_residual"] <= 1e-10


def test_tcp_nonnegative_q(tmp_path, capsys):
    path = write_instance(tmp_path, identity_tensor(3, 2), [0.5, 1.0])
    code, out, _ = run(capsys, "tcp", path)
    sol = json.loads(out)
    assert code == 0 and sol["x"] == [0.0, 0.0]


def test_tcp_no_solution_is_exit_zero(tmp_path, capsys):
    path = write_instance(tmp_path, -1.0 * identity_tensor(3, 2), [-1.0, -1.0])
    code, out, _ = run(capsys, "tcp", path, "--starts", "3", "--iters", "60")
    assert code == 0
    assert json.loads(out)["status"] == "no_solution_found"


def test_tcp_explore(tmp_path, capsys):
    path = write_instance(tmp_path, identity_tensor(3, 2), [-1.0, -1.0])
    code, out, _ = run(capsys, "tcp", path, "--explore", "--starts", "10")
    report = json.loads(out)
    assert code == 0
    assert report["status"] == "explored"
    assert report["count"] == 1


# ---------------------------------------------------------------------------
# gen


def test_gen_cauchy_round_trip(tmp_path, capsys):
    out_path = tmp_path / "c.json"
    code, _, _ = run(capsys, "gen", "cauchy", "--u", "1,2,3", "--m", "3",
                     "--out", str(out_path))
    assert code == 0
    A = read_tensor(out_path)
    assert A.data[0, 0, 0] == 1.0 / 3.0
    assert A.provenance_trusted and A.claim("scp") is True
    from ptensor.classes import cauchy_tensor

    in_memory = cauchy_tensor(np.array([1.0, 2.0, 3.0]), 3)
    assert np.array_equal(A.data, in_memory.data)


def test_gen_laplacian(tmp_path, capsys):
    hg = tmp_path / "hg.json"
    hg.write_text(json.dumps({"n": 3, "m": 3, "edges": [[0, 1, 2]]}))
    out_path = tmp_path / "lap.json"
    code, _, _ = run(capsys, "gen", "laplacian", "--hypergraph", str(hg),
                     "--out", str(out_path))
    assert code == 0
    L = read_tensor(out_path)
    assert np.array_equal(L.diagonal(), [1.0, 1.0, 1.0])
    assert L.claim("hypergraph_laplacian") is True


def test_gen_mtensor_certified(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    code, _, _ = run(capsys, "gen", "mtensor", "--m", "3", "--n", "2",
                     "--margin", "1.0", "--seed", "7", "--out", str(out_path))
    assert code == 0
    A = read_tensor(out_path)
    rep = classify_m_tensor(A)
    assert rep.label == "NONSINGULAR_M"


def test_gen_identity_and_basis(tmp_path, capsys):
    out_path = tmp_path / "i.json"
    code, _, _ = run(capsys, "gen", "identity", "--m", "4", "--n", "3",
                     "--out", str(out_path))
    assert code == 0
    assert np.array_equal(read_tensor(out_path).data, identity_tensor(4, 3).data)

    bpath = tmp_path / "b.json"
    code, _, _ = run(capsys, "gen", "basis_p0", "--indices", "0,1,1", "--n", "2",
                     "--negate", "--out", str(bpath))
    assert code == 0
    B = read_tensor(bpath)
    assert B.data[0, 1, 1] == -1.0
    assert B.claim("p0_by_construction") is True


def test_gen_cp(tmp_path, capsys):
    fpath = tmp_path / "factors.json"
    fpath.write_text(json.dumps({"factors": [[1.0, 0.0], [1.0, 1.0]]}))
    out_path = tmp_path / "cp.json"
    code, _, _ = run(capsys, "gen", "cp", "--factors", str(fpath), "--m", "3",
                     "--out", str(out_path))
    assert code == 0
    T = read_tensor(out_path)
    assert T.data[0, 0, 0] == 2.0 and T.claim("scp") is True


def test_gen_provenance_feeds_pcheck_certificates(tmp_path, capsys):
    # a generated file's checksummed claims certify downstream ...
    out_path = tmp_path / "c.json"
    run(capsys, "gen", "cauchy", "--u", "1,2,3", "--m", "3", "--out", str(out_path))
    code, out, _ = run(capsys, "pcheck", str(out_path), "p")
    assert code == 0
    v = json.loads(out)
    assert v["verdict"] == "CERTIFIED"
    assert v["chain"][0]["rule"] == "scp_construction"
    # ... but a hand-edited file falls back to from-scratch checking
    obj = json.loads(out_path.read_text())
    obj["entries"][1] = obj["entries"][1] * 1.001
    obj["symmetric"] = False
    out_path.write_text(json.dumps(obj))
    code, out2, _ = run(capsys, "pcheck", str(out_path), "p")
    assert code == 0
    v2 = json.loads(out2)
    assert all(c["rule"] != "scp_construction" for c in v2["chain"])


def test_gen_missing_params_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "cauchy", "--m", "3"])  # missing --u
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["gen", "nonsense", "--m", "3"])
    assert exc2.value.code == 2


def test_gen_random_seed_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(capsys, "gen", "random", "--m", "3", "--n", "3", "--seed", "5", "--out", str(p1))
    run(capsys, "gen", "random", "--m", "3", "--n", "3", "--seed", "5", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# repro


def test_repro_passes(capsys):
    code, out, _ = run(capsys, "repro")
    assert code == 0
    assert "golden self check: PASS" in out


def test_repro_json(capsys):
    code, out, _ = run(capsys, "repro", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["golden"] == {"term_index_1": -0.5, "term_index_2": -1.0}


def test_repro_negative_control(capsys):
    code, out, err = run(capsys, "repro", "--corrupt")
    assert code == 1


# ---------------------------------------------------------------------------
# determinism and environment


def test_reports_byte_identical(tmp_path, capsys):
    path = write_ref(tmp_path)
    _, out1, _ = run(capsys, "analyze", path, "--starts", "6", "--seed", "3")
    _, out2, _ = run(capsys, "analyze", path, "--starts", "6", "--seed", "3")
    assert out1 == out2


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PTENSOR_SEED", "42")
    path = write_identity(tmp_path)
    code, out, _ = run(capsys, "pcheck", path, "p")
    assert code == 0
    assert json.loads(out)["budget"]["seed"] == 42
    # explicit flag wins over the environment default
    code, out2, _ = run(capsys, "pcheck", path, "p", "--seed", "7")
    assert json.loads(out2)["budget"]["seed"] == 7


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_identity(tmp_path)
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "pcheck", path, "p", "--out", str(report_path))
    assert code == 0 and out == ""
    assert json.loads(report_path.read_text())["verdict"] == "CERTIFIED"


def _check_repro_exit_codes(command, env):
    """Run `command repro` and `command repro --corrupt`; check exit codes."""
    proc = subprocess.run([*command, "repro"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    # a wrapper that dropped main()'s return value would exit 0 here too
    proc = subprocess.run(
        [*command, "repro", "--corrupt"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_GOLDEN_FAIL, proc.stderr
    assert "golden self check: FAIL" in proc.stdout


def test_console_entry_point():
    """The declared `ptensor` script target, run the way pip's wrapper runs it.

    The target comes from `[project.scripts]` in pyproject.toml, so a wrong or
    unimportable target fails here even without an install.  The child process
    imports the same `ptensor` package as this test, whatever the working
    directory.  Where an installed `ptensor` script is on PATH it is run too.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ptensor"]
    assert re.fullmatch(r"[A-Za-z_][\w.]*:[A-Za-z_]\w*", target), target
    module, func = target.split(":")
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'ptensor'; sys.exit({func}())"
    )

    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    _check_repro_exit_codes([sys.executable, "-c", wrapper], env)

    installed = shutil.which("ptensor")
    if installed is not None:
        _check_repro_exit_codes([installed], env)


# ---------------------------------------------------------------------------
# input validation: integer file fields, search flags, flags per subcommand


def write_json(tmp_path, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return str(path)


def assert_clean_error(code, expected, out, err):
    assert code == expected
    assert out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "graph",
    [
        {"n": 3.9, "m": 3, "edges": [[0, 1, 2]]},
        {"n": 3, "m": 2.5, "edges": [[0, 1]]},
        {"n": 3, "m": 2, "edges": [[0, 1.7]]},
        {"n": True, "m": 2, "edges": []},
        {"n": "3", "m": 3, "edges": [[0, 1, 2]]},
        {"n": 3, "m": "2", "edges": [[0, 1]]},
    ],
)
def test_non_integer_hypergraph_fields_exit_3(tmp_path, capsys, graph):
    code, out, err = run(capsys, "gen", "laplacian", "--hypergraph", write_json(tmp_path, graph))
    assert_clean_error(code, 3, out, err)


_COO = {"order": 2, "dim": 2, "layout": "coo", "symmetric": False, "entries": []}


@pytest.mark.parametrize(
    "tensor",
    [
        {**_COO, "entries": [[True, 0, 2.0]]},
        {**_COO, "entries": [[0, 1.0, 2.0]]},
        {**_COO, "dim": True},
        {**_COO, "order": 2.0},
        {**_COO, "order": "2"},
    ],
)
def test_non_integer_tensor_fields_exit_3(tmp_path, capsys, tensor):
    code, out, err = run(capsys, "pcheck", write_json(tmp_path, tensor), "p")
    assert_clean_error(code, 3, out, err)


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "flags",
    [["--seed", "-1"], ["--starts", "0"], ["--iters", "0"], ["--tol", "0"], ["--tol", "inf"],
     ["--tol", "nan"], ["--tau-rel", "nan"], ["--tau-rel", "1"], ["--tau-rel", "-0.5"]],
)
def test_invalid_search_flags_exit_2(tmp_path, capsys, flags):
    code, out, err = run_usage_error(capsys, "pcheck", write_identity(tmp_path), "p", *flags)
    assert_clean_error(code, 2, out, err)


@pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
def test_invalid_env_seed_exits_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("PTENSOR_SEED", value)
    code, out, err = run_usage_error(capsys, "pcheck", write_identity(tmp_path), "p")
    assert_clean_error(code, 2, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "identity", "--m", "3", "--n", "2", "--starts", "3"],
        ["gen", "identity", "--m", "3", "--n", "2", "--tol", "1e-6"],
        ["gen", "identity", "--m", "3", "--n", "2", "--json"],
        ["repro", "--seed", "1"],
        ["repro", "--iters", "5"],
        ["repro", "--grid-depth", "5"],
        ["tcp", "instance.json", "--grid-depth", "5"],
        ["tcp", "instance.json", "--tau-rel", "0.1"],
        ["tcp", "instance.json", "--json"],
        ["pcheck", "tensor.json", "p", "--grid-depth", "5"],
        ["pcheck", "tensor.json", "p", "--json"],
        ["analyze", "tensor.json", "--json"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    code, out, err = run_usage_error(capsys, *argv)
    assert_clean_error(code, 2, out, err)
    assert "unrecognized arguments" in err


def test_ptensor_never_loads_scipy(tmp_path):
    """ptensor depends on numpy alone: no scipy module is loaded by
    importing the package, by an analyze run, or by cp_tensor."""
    path = tmp_path / "t44.json"
    write_tensor(random_tensor(4, 4, seed=3, symmetric=True), path)
    code = (
        "import sys\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import ptensor\n"
        "print(scipy())\n"
        "from ptensor.cli import main\n"
        f"print(main(['analyze', {str(path)!r}, '--out', {str(tmp_path / 'r.json')!r}]), scipy())\n"
        "ptensor.cp_tensor([[1.0, 0.0, 2.0], [0.5, 0.5, 0.0]], 3)\n"
        "print(scipy())\n"
    )
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["[]", "0 []", "[]"]
    assert json.loads((tmp_path / "r.json").read_text())["eigenpairs"]["count"] > 0


def test_ptensor_import_leaves_file_formats_unloaded():
    """Every input file is read in ptensor.tensorio, which imports the
    library, not the reverse: importing the package loads no reader."""
    code = "import sys\nimport ptensor\nprint('ptensor.tensorio' in sys.modules)\n"
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"]


def test_ptensor_import_leaves_exact_arithmetic_unloaded():
    """ptensor.exact (and with it fractions and decimal) loads only when a
    sign-search candidate reaches the exact test, not with the package."""
    code = ("import sys\nimport ptensor.cli\n"
            "print([m for m in ('ptensor.exact', 'fractions') if m in sys.modules])\n")
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


# ---------------------------------------------------------------------------
# gen: bad flag values and sizes are usage errors, bad factor files parse errors


def _gen_subprocess(*argv):
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "ptensor.cli", "gen", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize(
    "argv,factors,expected",
    [
        (["cauchy", "--u", "1,2", "--m", "1"], None, 2),
        (["cp", "--factors", "FACTORS", "--m", "1"], [[1.0, 2.0]], 2),
        (["basis_p0", "--indices", "0", "--n", "2"], None, 2),
        (["cp", "--factors", "FACTORS", "--m", "3"], [[1, "x"]], 3),
        (["cp", "--factors", "FACTORS", "--m", "3"], [[1, 2], [1, 2, 3]], 3),
        (["cp", "--factors", "FACTORS", "--m", "3"], [[1, -2], [1, 2]], 3),
        (["cp", "--factors", "FACTORS", "--m", "3"], [[]], 3),
    ],
    ids=["cauchy-order-1", "cp-order-1", "basis-p0-one-index", "cp-non-numeric-factor",
         "cp-ragged-factors", "cp-negative-factor", "cp-empty-factor"],
)
def test_gen_bad_values_exit_without_traceback(tmp_path, argv, factors, expected):
    if factors is not None:
        path = write_json(tmp_path, {"factors": factors})
        argv = [path if a == "FACTORS" else a for a in argv]
    proc = _gen_subprocess(*argv)
    assert proc.returncode == expected, proc.stderr
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("factors,m", [([[1e200, 1.0]], "3"), ([[1.2e154, 0.0]] * 2, "2")],
                         ids=["power", "sum"])
def test_gen_cp_beyond_float64_prints_only_the_error(tmp_path, factors, m):
    """A cp tensor with an entry beyond the float64 range, from one factor's
    max|u|^m or from a sum of them, exits 2 with one error line on stderr
    and no numpy overflow warning."""
    proc = _gen_subprocess("cp", "--factors", write_json(tmp_path, {"factors": factors}),
                           "--m", m)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["identity", "--m", "40", "--n", "3"],
        ["random", "--m", "3", "--n", "0"],
        ["allones", "--m", "1", "--n", "3"],
        ["cauchy", "--u", ",", "--m", "3"],
        ["basis_p0", "--indices", "0,5", "--n", "2"],
    ],
)
def test_gen_shape_checked_before_allocating(tmp_path, capsys, argv):
    out_path = tmp_path / "t.json"
    code, out, err = run_usage_error(capsys, "gen", *argv, "--out", str(out_path))
    assert_clean_error(code, 2, out, err)
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["identity", "allones", "random", "mtensor"])
def test_gen_entry_cap_boundary(tmp_path, capsys, monkeypatch, kind):
    from ptensor import tensorio

    monkeypatch.setattr(tensorio, "MAX_ENTRIES", 64)
    out_path = tmp_path / "t.json"
    code, _, _ = run(capsys, "gen", kind, "--m", "3", "--n", "4", "--out", str(out_path))
    assert code == 0 and read_tensor(out_path).data.shape == (4, 4, 4)
    code, out, err = run_usage_error(capsys, "gen", kind, "--m", "3", "--n", "5")
    assert_clean_error(code, 2, out, err)


# ---------------------------------------------------------------------------
# numeric values must be JSON numbers with a finite float value

_HUGE = "1" + "0" * 400  # a 401-digit integer literal
_DENSE = '{"order":2,"dim":2,"layout":"dense","symmetric":false,"entries":[%s,0,0,1]}'
_COO = '{"order":2,"dim":2,"layout":"coo","symmetric":false,"entries":[[0,0,%s],[1,1,1]]}'
_TCP = '{"tensor":{"order":2,"dim":2,"layout":"dense","symmetric":false,"entries":[1,0,0,1]},"q":[%s,-1]}'


@pytest.mark.parametrize(
    "argv,text",
    [
        (["pcheck", "FILE", "p"], _DENSE % "true"),
        (["pcheck", "FILE", "p"], _DENSE % '"1"'),
        (["pcheck", "FILE", "p"], _DENSE % _HUGE),
        (["pcheck", "FILE", "p"], _COO % "true"),
        (["pcheck", "FILE", "p"], _COO % '"1"'),
        (["pcheck", "FILE", "p"], _COO % _HUGE),
        (["tcp", "FILE"], _TCP % "true"),
        (["tcp", "FILE"], _TCP % _HUGE),
        (["gen", "cp", "--factors", "FILE", "--m", "3"], '{"factors":[[true,1.0]]}'),
        (["gen", "cp", "--factors", "FILE", "--m", "3"], '{"factors":[["1",1.0]]}'),
        (["gen", "cp", "--factors", "FILE", "--m", "3"], '{"factors":[[%s,1.0]]}' % _HUGE),
    ],
    ids=["dense-true", "dense-string", "dense-huge-int", "coo-true", "coo-string",
         "coo-huge-int", "q-true", "q-huge-int", "factor-true", "factor-string",
         "factor-huge-int"],
)
def test_non_number_values_exit_3_without_traceback(tmp_path, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    env = dict(os.environ)
    package_root = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    argv = [str(path) if a == "FILE" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "ptensor.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
