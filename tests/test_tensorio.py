"""File formats: round trips, validation, provenance checksums."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptensor
from ptensor import ParseError, Tensor, identity_tensor, tensorio
from ptensor.classes import cauchy_tensor, laplacian_tensors
from ptensor.core import _scaled, contract_m1_jacobian, symmetrize, symmetry_deviation
from ptensor.generators import random_cauchy_generating_vector
from ptensor.pcheck import check_p
from ptensor.tensorio import (
    dumps_canonical,
    format_float,
    parse_hypergraph,
    parse_tensor,
    read_tensor,
    tensor_checksum,
    tensor_to_json_dict,
    write_tensor,
)
from oracles import jacobian_rounding_excess


def test_format_float_round_trips():
    for v in (1.0, -0.5, 1 / 3, 1e-300, 2.2250738585072014e-308, 0.1, 3.141592653589793):
        assert float(format_float(v)) == v


def test_dumps_canonical_deterministic():
    obj = {"b": [1.0, 0.5, None], "a": {"x": True, "y": "s"}}
    assert dumps_canonical(obj) == dumps_canonical(obj)
    assert dumps_canonical(obj) == '{"b":[1,0.5,null],"a":{"x":true,"y":"s"}}'


def test_dense_round_trip_bit_exact(tmp_path, rng):
    data = rng.uniform(-1, 1, size=(3, 3, 3))
    data[0, 0, 0] = 1e-17
    data[1, 1, 1] = 1 / 3
    A = Tensor(data)
    path = tmp_path / "t.json"
    write_tensor(A, path)
    B = read_tensor(path)
    assert np.array_equal(A.data, B.data)
    assert B.symmetric == A.symmetric


def test_coo_round_trip_symmetric(tmp_path, ref_tensor):
    path = tmp_path / "ref.json"
    write_tensor(ref_tensor, path, layout="coo")
    obj = json.loads(path.read_text())
    assert obj["layout"] == "coo"
    # representatives only: every listed index tuple is nondecreasing
    for item in obj["entries"]:
        idx = item[:-1]
        assert idx == sorted(idx)
    B = read_tensor(path)
    assert np.array_equal(B.data, ref_tensor.data)
    assert B.symmetric


def test_coo_omitted_entries_are_zero():
    A = parse_tensor(
        {"order": 3, "dim": 2, "layout": "coo", "symmetric": False,
         "entries": [[0, 1, 1, 2.5]]}
    )
    assert A.data[0, 1, 1] == 2.5
    assert A.data.sum() == 2.5


def test_coo_symmetric_replicates_orbit():
    A = parse_tensor(
        {"order": 3, "dim": 3, "layout": "coo", "symmetric": True,
         "entries": [[0, 1, 2, 0.5]]}
    )
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        assert A.data[perm] == 0.5


def test_coo_symmetric_high_order_fills_exactly_the_orbit():
    """One symmetric entry at order 12 lands on its C(12, 6) distinct
    orderings and nowhere else."""
    A = parse_tensor(
        {"order": 12, "dim": 2, "layout": "coo", "symmetric": True,
         "entries": [[0] * 6 + [1] * 6 + [1.5]]}
    )
    assert np.count_nonzero(A.data == 1.5) == 924
    assert np.count_nonzero(A.data) == 924
    assert A.data[(1,) * 6 + (0,) * 6] == 1.5
    assert A.symmetric


def test_coo_duplicate_orbit_must_agree():
    base = {"order": 2, "dim": 2, "layout": "coo", "symmetric": True}
    ok = parse_tensor({**base, "entries": [[0, 1, 1.0], [1, 0, 1.0]]})
    assert ok.data[0, 1] == 1.0
    with pytest.raises(ParseError):
        parse_tensor({**base, "entries": [[0, 1, 1.0], [1, 0, 1.0 + 1e-6]]})


def test_coo_duplicate_nonsymmetric_must_agree():
    base = {"order": 2, "dim": 2, "layout": "coo", "symmetric": False}
    with pytest.raises(ParseError):
        parse_tensor({**base, "entries": [[0, 1, 1.0], [0, 1, 2.0]]})


@pytest.mark.parametrize("symmetric", [True, False], ids=["orbit", "entry"])
@pytest.mark.parametrize("first, second, agree", [
    (1e20, 1e20 + 2**24, True),  # 1.7e-13 relative apart
    (1e-20, 2e-20, False),  # 1e-20 apart: within an absolute 1e-12, not relatively
    (-3.0, -3.0 * (1 + 4e-12), False),
    (0.0, 0.0, True),
])
def test_coo_duplicates_agree_relative_to_the_larger_value(symmetric, first, second, agree):
    """Duplicate listings must agree to SYMMETRY_TOL relative to the larger
    of the two values, at any scale; the first listing is kept."""
    obj = {"order": 2, "dim": 2, "layout": "coo", "symmetric": symmetric,
           "entries": [[0, 1, first], [int(symmetric), int(not symmetric), second]]}
    if not agree:
        with pytest.raises(ParseError, match="conflicting duplicate"):
            parse_tensor(obj)
        return
    A = parse_tensor(obj)
    assert A.data[0, 1] == first
    assert symmetry_deviation(A.data) == 0.0 or not symmetric


def test_symmetric_flag_validated():
    data = np.zeros((2, 2))
    data[0, 1] = 1.0
    with pytest.raises(ParseError):
        parse_tensor({"order": 2, "dim": 2, "layout": "dense", "symmetric": True,
                      "entries": data.reshape(-1).tolist()})


def _flagged(data: np.ndarray) -> dict:
    """A dense tensor object with the symmetric flag set."""
    return {"order": data.ndim, "dim": data.shape[0], "layout": "dense", "symmetric": True,
            "entries": data.reshape(-1).tolist()}


@pytest.mark.parametrize("scale", [1e-13, 1.0])
def test_asymmetric_flagged_file_exits_3_at_every_scale(tmp_path, scale):
    """Entries uniform in [-1, 1] deviate from symmetry by about 1, and the
    flag is rejected whatever their scale.  At 1e-13 the deviation, 1.8e-13,
    used to pass an absolute 1e-12 floor, and the file loaded flagged
    symmetric, with a Jacobian 54 % off at (0.3, -0.5, 0.8)."""
    data = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 3, 3)) * scale
    path = tmp_path / "t.json"
    path.write_text(json.dumps(_flagged(data)))
    env = dict(os.environ)
    src = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ptensor.cli", "pcheck", str(path), "p"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "symmetric flag set" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13, 1.5e308])
def test_nearly_symmetric_flagged_file_loads_exactly_symmetric(scale):
    """Entries symmetric up to relative noise below SYMMETRY_TOL load
    symmetrized (the orbit means of core.symmetrize, taken on the copy of
    core._scaled, so that near the float64 limit no orbit sum overflows),
    so the flag is exact: the Jacobian, which trusts it, passes the
    exact-arithmetic oracle and its rounding bound."""
    rng = np.random.default_rng(1)
    base = symmetrize(Tensor(rng.uniform(-1.0, 1.0, (3, 3, 3)))).data
    written = base * (1.0 + rng.uniform(-2e-13, 2e-13, base.shape)) * scale
    assert 0.0 < symmetry_deviation(written) <= tensorio.SYMMETRY_TOL * np.max(np.abs(written))
    A = parse_tensor(_flagged(written))
    assert A.symmetric and symmetry_deviation(A.data) == 0.0
    S, e = _scaled(Tensor(written))
    assert np.array_equal(A.data, np.ldexp(symmetrize(S).data, e))
    if scale < 1e300:
        assert np.array_equal(A.data, symmetrize(Tensor(written)).data)
    x = np.array([0.3, -0.5, 0.8]) / 16.0  # the Jacobian at 1.5e308 stays finite
    assert jacobian_rounding_excess(A.data, x, contract_m1_jacobian(A, x)) == []


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(2, 3), (3, 2), (3, 3), (4, 3)]),
    seed=st.integers(0, 2**32 - 1),
    noise=st.floats(-15.0, -10.0),
    k=st.integers(-40, 40),
)
def test_flagged_file_acceptance_is_invariant_under_powers_of_two(shape, seed, noise, k):
    """A flagged file is accepted or rejected as its copy times 2^k is, for
    |k| <= 40, and the accepted copy loads as the tensor times 2^k: the
    tolerance is relative to max|a|, with no absolute floor."""
    m, n = shape
    rng = np.random.default_rng(seed)
    base = symmetrize(Tensor(rng.uniform(-1.0, 1.0, (n,) * m))).data
    data = base + rng.uniform(-1.0, 1.0, base.shape) * 10.0**noise
    loaded = []
    for entries in (data, np.ldexp(data, k)):
        try:
            loaded.append(parse_tensor(_flagged(entries)).data)
        except ParseError:
            loaded.append(None)
    assert (loaded[0] is None) == (loaded[1] is None)
    if loaded[0] is not None:
        assert np.array_equal(loaded[1], np.ldexp(loaded[0], k))


@pytest.mark.parametrize(
    "obj",
    [
        {"order": 3, "dim": 2, "layout": "dense", "symmetric": False, "entries": [0.0] * 7},
        {"order": 3, "dim": 2, "layout": "bad", "symmetric": False, "entries": []},
        {"order": 1, "dim": 2, "layout": "dense", "symmetric": False, "entries": [0.0, 0.0]},
        {"order": 2, "dim": 2, "layout": "coo", "symmetric": False, "entries": [[0, 5, 1.0]]},
        {"order": 2, "dim": 2, "layout": "coo", "symmetric": False, "entries": [[0, 1.5, 1.0]]},
        {"order": 2, "dim": 2, "layout": "dense", "symmetric": False, "entries": [0.0, "x", 0.0, 0.0]},
        {"order": 2, "dim": 2, "symmetric": False, "entries": [0.0] * 4},
        {"order": 2, "dim": 2, "layout": "dense", "symmetric": False, "entries": [10**400, 0, 0, 1]},
        {"order": 2, "dim": 2, "layout": "coo", "symmetric": False, "entries": [[0, 1, -10**400]]},
    ],
)
def test_malformed_tensor_objects(obj):
    with pytest.raises(ParseError):
        parse_tensor(obj)


def test_oversized_header_exits_3_without_traceback(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"order":40,"dim":8,"layout":"coo","symmetric":false,"entries":[]}')
    env = dict(os.environ)
    src = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ptensor.cli", "pcheck", str(path), "p"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "too large" in proc.stderr


def test_entry_cap_boundary(monkeypatch):
    monkeypatch.setattr(tensorio, "MAX_ENTRIES", 64)
    coo = {"layout": "coo", "symmetric": False, "entries": [[0, 0, 0, 1.0]]}
    A = parse_tensor({"order": 3, "dim": 4, **coo})
    assert A.data.shape == (4, 4, 4) and A.data[0, 0, 0] == 1.0
    with pytest.raises(ParseError):
        parse_tensor({"order": 3, "dim": 5, **coo})


def test_order_beyond_numpy_axis_limit_rejected():
    with pytest.raises(ParseError):
        parse_tensor({"order": 65, "dim": 1, "layout": "coo", "symmetric": False, "entries": []})


def test_provenance_checksum_trusted(tmp_path):
    C = cauchy_tensor(np.array([1.0, 2.0, 3.0]), 3)
    assert C.provenance_trusted and C.claim("scp") is True
    path = tmp_path / "c.json"
    write_tensor(C, path)
    back = read_tensor(path)
    assert back.provenance_trusted
    assert back.claim("scp") is True


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_cauchy_tensors_round_trip_through_coo_bit_for_bit(tmp_path, m, n):
    """Flagged Cauchy tensors are exactly symmetric, so the COO writer's
    one entry per orbit reads back to every entry bit for bit."""
    path = tmp_path / "c.json"
    for seed in range(5):
        C = cauchy_tensor(random_cauchy_generating_vector(n, seed), m)
        write_tensor(C, path, layout="coo")
        back = read_tensor(path)
        assert np.array_equal(back.data, C.data)
        assert back.symmetric and back.provenance_trusted


def test_inexact_cauchy_file_stays_trusted_and_loads_symmetrized(tmp_path):
    """A Cauchy file written before each orbit's sum was taken once holds
    entries that are symmetric only to rounding.  Its checksum binds the
    entries as written, so its claims stay trusted; the tensor loads
    symmetrized."""
    u = random_cauchy_generating_vector(5, 0)
    written = 1.0 / np.add.outer(np.add.outer(u, u), u)
    assert symmetry_deviation(written) > 0.0
    claims = {"generator": "cauchy", "cp": True, "scp": True}
    obj = {**_flagged(written),
           "provenance": {**claims, "checksum": tensor_checksum(3, 5, written, claims)}}
    A = parse_tensor(obj)
    assert A.provenance_trusted and A.claim("scp") is True
    assert np.array_equal(A.data, symmetrize(Tensor(written)).data)


def test_provenance_corruption_breaks_trust(tmp_path):
    C = cauchy_tensor(np.array([1.0, 2.0, 3.0]), 3)
    path = tmp_path / "c.json"
    write_tensor(C, path)
    obj = json.loads(path.read_text())
    obj["entries"][0] = 0.999 * obj["entries"][0]  # hand edit an entry
    # keep the symmetric flag honest for the edited file
    obj["symmetric"] = False
    path.write_text(json.dumps(obj))
    back = read_tensor(path)
    assert back.provenance is not None
    assert not back.provenance_trusted
    assert back.claim("scp") is None


def test_unreadable_file(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_tensor(path)
    with pytest.raises(ParseError):
        read_tensor(tmp_path / "missing.json")


def test_hypergraph_parsing():
    G = parse_hypergraph({"n": 4, "m": 3, "edges": [[0, 1, 2], [0, 1, 3]]})
    assert G.n_vertices == 4 and G.arity == 3 and len(G.edges) == 2
    with pytest.raises(ParseError):
        parse_hypergraph({"n": 3, "m": 3, "edges": [[0, 1]]})
    with pytest.raises(ParseError):
        parse_hypergraph({"n": 3, "edges": []})


def test_identity_round_trip_via_dict(ref_tensor):
    obj = tensor_to_json_dict(identity_tensor(4, 3))
    A = parse_tensor(json.loads(dumps_canonical(obj)))
    assert np.array_equal(A.data, identity_tensor(4, 3).data)
    obj2 = tensor_to_json_dict(ref_tensor, layout="coo")
    B = parse_tensor(json.loads(dumps_canonical(obj2)))
    assert np.array_equal(B.data, ref_tensor.data)


def test_oversized_hypergraph_exits_3_without_traceback(tmp_path):
    path = tmp_path / "hg.json"
    path.write_text('{"n": 1000, "m": 8, "edges": []}')
    env = dict(os.environ)
    src = str(Path(ptensor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ptensor.cli", "gen", "laplacian", "--hypergraph", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "too large" in proc.stderr


def test_hypergraph_cap_boundary(monkeypatch):
    monkeypatch.setattr(tensorio, "MAX_ENTRIES", 64)
    G = parse_hypergraph({"n": 4, "m": 3, "edges": [[0, 1, 2]]})
    assert laplacian_tensors(G)[1].data.shape == (4, 4, 4)
    with pytest.raises(ParseError):
        parse_hypergraph({"n": 5, "m": 3, "edges": [[0, 1, 2]]})
    with pytest.raises(ParseError):
        parse_hypergraph({"n": 1, "m": 65, "edges": []})


@pytest.mark.parametrize(
    "obj",
    [
        {"n": "x", "m": 3, "edges": []},
        {"n": 3, "m": 3, "edges": [5]},
        {"n": 3, "m": 3, "edges": [[0, "a", 1]]},
        {"n": 3, "m": 3, "edges": None},
    ],
)
def test_malformed_hypergraph_values_rejected(obj):
    with pytest.raises(ParseError):
        parse_hypergraph(obj)


def test_untrusted_claims_stay_untrusted_through_a_round_trip(tmp_path):
    """A file whose checksum does not verify is written back without one,
    so its claims read back untrusted and cannot certify a non-P matrix."""
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({
        "order": 2, "dim": 2, "layout": "dense", "symmetric": True,
        "entries": [1, -5, -5, 1],
        "provenance": {"generator": "cp", "scp": True, "checksum": "bogus"},
    }))
    A = read_tensor(path)
    assert A.provenance is not None and not A.provenance_trusted
    assert check_p(A).verdict == "REFUTED"
    again = tmp_path / "again.json"
    write_tensor(A, again)
    assert "checksum" not in json.loads(again.read_text())["provenance"]
    back = read_tensor(again)
    assert back.provenance == {"generator": "cp", "scp": True}
    assert not back.provenance_trusted
    assert check_p(back).verdict == "REFUTED"


def test_in_process_untrusted_claims_written_without_checksum(tmp_path):
    A = Tensor([[1.0, -5.0], [-5.0, 1.0]], provenance={"scp": True})
    assert not A.provenance_trusted
    assert "checksum" not in tensor_to_json_dict(A)["provenance"]
    path = tmp_path / "t.json"
    write_tensor(A, path)
    back = read_tensor(path)
    assert back.provenance == {"scp": True}
    assert not back.provenance_trusted and back.claim("scp") is None
