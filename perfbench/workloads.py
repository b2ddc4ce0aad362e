"""The four workloads: their inputs, their operations and the checks on
each operation's output.

Every input comes from the run's --seed, except two fixed sets whose
outcome does not depend on it (see README.md): the false refutations kept
in sign-search and the slow M-tensor and odd-order instances kept in
tcp-explore.  Operations call ptensor through module attributes, looked
up at call time, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

import checks
from ptensor import classes, cli, core, generators, pcheck, tcp

FIXED = 20150723  # base of the seed-independent inputs


@dataclass
class Op:
    """One timed operation.

    run(trace) returns the output; trace is None in an untraced run.
    check(output) returns a list of problems.  canon(output) is the text
    compared between rounds and between the traced and the untraced run."""

    key: str
    run: Callable
    check: Callable
    canon: Callable


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def subseed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _in_process(key, fn, check) -> Op:
    return Op(key, lambda trace: fn().to_json_dict(), check, _dumps)


# ---------------------------------------------------------------------------
# analyze-cli

ANALYZE_SHAPES = [(4, 4), (3, 6)]
GEN_MTENSOR = [(3, 4)]
GEN_CAUCHY = [(3, 5)]


def _random_symmetric(m: int, n: int, seed: int) -> np.ndarray:
    """Seeded random symmetric tensor.  At odd order a draw whose diagonal
    is all positive is drawn again: its P search can end in the false
    refutation that sign-search measures, on some seeds and not others."""
    k = 0
    while True:
        A = generators.random_tensor(m, n, seed=subseed(seed, m, n, k), symmetric=True)
        if m % 2 == 0 or not np.all(A.diagonal() > 0.0):
            return A.data
        k += 1


def _write_dense(path: str, data: np.ndarray) -> None:
    obj = {"order": data.ndim, "dim": data.shape[0], "layout": "dense",
           "symmetric": True, "entries": [float(v) for v in data.reshape(-1)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_dense(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return np.array(obj["entries"], dtype=float).reshape((obj["dim"],) * obj["order"])


def _gen(argv: list) -> None:
    """`ptensor gen ...` in this process; it prints the written path."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["gen", *argv])
    if code != 0:
        raise RuntimeError(f"ptensor gen {' '.join(argv)} exited with code {code}")


def analyze_cli(seed: int, workdir: str, env: dict, here: str) -> tuple:
    files = []  # (path, expect)
    for m, n in ANALYZE_SHAPES:
        path = os.path.join(workdir, f"random_{m}_{n}.json")
        _write_dense(path, _random_symmetric(m, n, seed))
        files.append((path, {}))
    for m, n in GEN_MTENSOR:
        path = os.path.join(workdir, f"mtensor_{m}_{n}.json")
        _gen(["mtensor", "--m", str(m), "--n", str(n),
              "--seed", str(subseed(seed, 1, m, n) % 2**31), "--out", path])
        files.append((path, {"classes.m_tensor.label": "NONSINGULAR_M",
                             "pcheck.p.verdict": "CERTIFIED"}))
    for m, n in GEN_CAUCHY:
        u = np.sort(rng_for(seed, 2, m, n).uniform(0.2, 3.0, size=n))
        path = os.path.join(workdir, f"cauchy_{m}_{n}.json")
        _gen(["cauchy", "--m", str(m), "--u", ",".join(repr(float(v)) for v in u),
              "--out", path])
        files.append((path, {"pcheck.p.verdict": "CERTIFIED",
                             "pcheck.p0.verdict": "CERTIFIED"}))

    def op_for(path, expect):
        data = _read_dense(path)

        def run(trace):
            if trace is None:
                argv = [sys.executable, "-m", "ptensor.cli", "analyze", path]
            else:
                argv = [sys.executable, os.path.join(here, "traced_cli.py"),
                        trace.span_path(), str(trace.op_id), "analyze", path]
            proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, check=False)
            return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

        def check(out):
            code, text, err = out
            if code != 0:
                return [f"exit code {code}: {err.strip()[-300:]}"]
            return checks.report(data, json.loads(text), expect)

        return Op(os.path.basename(path), run, check, lambda out: out[1])

    # The warm-up analyzes a seed-independent file, so that set-up time does
    # not depend on the seed.
    warm = os.path.join(workdir, "warm_3_3.json")
    _write_dense(warm, _random_symmetric(3, 3, FIXED))
    return [op_for(p, e) for p, e in files], [op_for(warm, {})]


# ---------------------------------------------------------------------------
# sign-search

# (m, n, c, checks): the diagonal gets d = c * n^(m-1) / 2, a share c of
# the mean absolute off-row sum.  At m = 2, c is set where nearly every
# input reaches the descent and ends LIKELY; a rule certifies larger c and
# the battery refutes smaller c, and a mix of the three would make the time
# a matter of the seed.  Odd-order check_p is left out of the seeded set:
# its refutation search ends in a false refutation on some seeds and not
# others.
SIGN_INPUTS = [(2, 4, 0.35, ("p", "p0", "s")), (2, 8, 0.45, ("p0", "s")),
               (3, 6, 0.6, ("p0", "s")), (4, 4, 0.6, ("p", "s")),
               (4, 8, 0.6, ("p0", "s")), (6, 4, 0.3, ("p", "s"))]
# Seed-independent odd-order check_p inputs (m, n, d, index); five of the
# eight end in a false refutation on every run.
SIGN_FIXED_P = [(3, 8, 0.05, 0), (3, 8, 0.05, 1), (3, 8, 0.05, 3), (3, 8, 0.05, 5),
                (3, 6, 2.0, 1), (3, 6, 2.0, 7), (3, 8, 2.0, 1), (3, 8, 2.0, 2)]


def _positive_diagonal(m: int, n: int, rng, d: float) -> np.ndarray:
    """Entries uniform in [-1, 1], then the diagonal set to |a_i..i| + d."""
    a = rng.uniform(-1.0, 1.0, size=(n,) * m)
    sel = tuple([np.arange(n)] * m)
    a[sel] = np.abs(a[sel]) + d
    return a


def sign_search(seed: int, workdir: str, env: dict, here: str) -> tuple:
    ops = []
    for m, n, c, props in SIGN_INPUTS:
        data = _positive_diagonal(m, n, rng_for(seed, 3, m, n), c * n ** (m - 1) / 2.0)
        ops.append(_sign_op(f"{m}x{n}", data, props))
    for m, n, d, k in SIGN_FIXED_P:
        data = _positive_diagonal(m, n, rng_for(FIXED, m, n, k), d)
        ops.append(_sign_op(f"fixed{m}x{n}.d{d}.{k}", data, ("p",)))
    # A seed-independent warm-up, so that set-up time does not depend on
    # the seed.
    m, n, c, props = SIGN_INPUTS[0]
    data = _positive_diagonal(m, n, rng_for(FIXED, m, n), c * n ** (m - 1) / 2.0)
    return ops, [_sign_op("warm", data, props)]


def _sign_op(key, data, props) -> Op:
    """One operation: the listed checks (p, p0, s) on one tensor."""
    A = core.Tensor(data)

    def run(trace):
        return {prop: getattr(pcheck, "check_" + prop)(A).to_json_dict() for prop in props}

    def check(out):
        probs = []
        if "p" in out:
            probs += checks.p_verdict(data, out["p"])
        if "p0" in out:
            probs += checks.p0_verdict(data, out["p0"])
        if "p" in out and "p0" in out:
            probs += checks.consistent(out["p"], out["p0"])
        if "s" in out:
            probs += checks.s_verdict(data, out["s"])
        return probs

    return Op(key, run, check, _dumps)


def _pcheck(name, A):
    return lambda: getattr(pcheck, name)(A)


# ---------------------------------------------------------------------------
# certify-sweep

SWEEP_SMALL = [(2, 3), (2, 5), (2, 8), (3, 3), (3, 4), (3, 6), (4, 3), (4, 4), (4, 5),
               (5, 3), (5, 4), (6, 3)]
SWEEP_LARGE = [(3, 8), (4, 6), (4, 8), (6, 4), (6, 5), (6, 8)]
SWEEP_COUNTS = {"sdd": 30, "mtensor": 16, "scp": 10, "cauchy": 10, "cp": 12,
                "laplacian": 12, "neg_p": 10, "neg_p0": 10}
SWEEP_PROP = {"sdd": "p", "mtensor": "p", "scp": "p", "cauchy": "p", "cp": "p0",
              "laplacian": "p0", "neg_p": "p", "neg_p0": "p0"}


def _construct(kind: str, m: int, n: int, s: int):
    """(tensor, negated diagonal index or None) for one sweep input."""
    if kind == "sdd":
        return generators.random_sdd_tensor(m, n, s), None
    if kind == "mtensor":
        return generators.random_m_tensor(m, n, s), None
    if kind == "scp":
        return generators.random_scp_tensor(m, n, s), None
    if kind == "cauchy":
        return classes.cauchy_tensor(generators.random_cauchy_generating_vector(n, s), m), None
    if kind == "cp" or (kind == "laplacian" and n < m):
        return generators.random_cp_tensor(m, n, s), None
    if kind == "laplacian":
        edges = max(1, min(2 * n, comb(n, m)))
        G = generators.random_hypergraph(n, m, edges, s)
        return classes.laplacian_tensors(G)[int(s % 2) + 1], None
    base = (generators.random_sdd_tensor(m, n, s) if kind == "neg_p"
            else generators.random_cp_tensor(m, n, s))
    i = int(s % n)
    data = base.data.copy()
    data[(i,) * m] = -data[(i,) * m] - 0.5
    return core.Tensor(data), i


def certify_sweep(seed: int, workdir: str, env: dict, here: str) -> tuple:
    ops = []
    for m, n in SWEEP_SMALL + SWEEP_LARGE:
        large = (m, n) in SWEEP_LARGE
        for kind, count in SWEEP_COUNTS.items():
            if kind == "cauchy" and m == 2:
                continue  # the stored entries of some are not a P-matrix; see README
            for k in range(1 if large else count):
                A, neg = _construct(kind, m, n, subseed(seed, 4, m, n, k) % 2**31)
                prop = SWEEP_PROP[kind]
                name = "check_p" if prop == "p" else "check_p0"
                ops.append(_in_process(f"{kind}/{m}x{n}/{k}", _pcheck(name, A),
                                       _sweep_check(A.data, prop, neg)))
    warm = [op for op in ops if op.key.endswith("/2x3/0")]
    return ops, warm


def _sweep_check(data, prop, neg):
    def check(out):
        if neg is not None:
            if out["verdict"] != "REFUTED" or out["witness"] != checks.unit(data.shape[0], neg):
                return [f"negative control not REFUTED at e_{neg}"]
        elif out["verdict"] != "CERTIFIED":
            return [f"{prop} construction graded {out['verdict']}, not CERTIFIED"]
        return (checks.p_verdict if prop == "p" else checks.p0_verdict)(data, out)

    return check


# ---------------------------------------------------------------------------
# tcp-explore

TCP_SEEDED = {
    "sdd": [(2, 3), (2, 6), (2, 8), (4, 3), (4, 4), (4, 5), (6, 3)],
    "mtensor": [(2, 4), (2, 8)],
    "cauchy": [(3, 4), (3, 8), (4, 4), (5, 3), (6, 3)],
    "scp": [(2, 7), (3, 5), (4, 4), (5, 3), (6, 3)],
}
# Seed-independent instances with q = -1: on these, most of the multistart's
# starts run to the Gauss-Newton iteration cap (0.8 to 2.5 s each).
TCP_FIXED = [("mtensor", 4, 4, 3), ("mtensor", 3, 3, 1), ("sdd", 5, 4, 3)]


def _tcp_tensor(kind, m, n, s):
    if kind == "sdd":
        return generators.random_sdd_tensor(m, n, s)
    if kind == "mtensor":
        return generators.random_m_tensor(m, n, s)
    if kind == "cauchy":
        return classes.cauchy_tensor(generators.random_cauchy_generating_vector(n, s), m)
    return generators.random_scp_tensor(m, n, s)


def _q(rng, n):
    q = rng.standard_normal(n)
    if np.all(q >= 0.0):
        q[0] = -q[0] - 0.5
    return q


# Two seeded instances per kind and shape: op_p50_ms, a median over
# instances whose cost moves with the seed, then rests on 38 of them.
TCP_PER_SHAPE = 2


def tcp_explore(seed: int, workdir: str, env: dict, here: str) -> tuple:
    insts = []
    for kind, shapes in TCP_SEEDED.items():
        for m, n in shapes:
            for k in range(TCP_PER_SHAPE):
                s = subseed(seed, 5, m, n, k) % 2**31
                insts.append((f"{kind}/{m}x{n}/{k}", _tcp_tensor(kind, m, n, s),
                              _q(rng_for(seed, 6, m, n, k), n)))
    for kind, m, n, s in TCP_FIXED:
        insts.append((f"fixed-{kind}/{m}x{n}", _tcp_tensor(kind, m, n, s), -np.ones(n)))
    ops = []
    for key, A, q in insts:
        ops.append(Op(key, _tcp_run(tcp.TcpInstance(A, q)), _tcp_check(A.data, q), _dumps))
    warm = [op for op in ops if op.key == "sdd/2x3/0"]
    return ops, warm


def _tcp_run(inst):
    """One operation: solve the instance, then explore its solution set."""
    return lambda trace: [tcp.solve_tcp(inst).to_json_dict(),
                          tcp.explore_solutions(inst).to_json_dict()]


def _tcp_check(data, q):
    def check(out):
        return checks.tcp_solve(data, q, out[0]) + checks.tcp_explore(data, q, out[1])

    return check


WORKLOADS = {
    "analyze-cli": analyze_cli,
    "sign-search": sign_search,
    "certify-sweep": certify_sweep,
    "tcp-explore": tcp_explore,
}
