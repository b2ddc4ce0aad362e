"""Checks of ptensor's outputs against exact.py, or against properties the
method must have.  Each check returns a list of problems; an empty list
means the output passed.  Checks read verdicts as the JSON dictionaries
ptensor emits, so in-process results and `analyze` reports go through the
same code.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from exact import (
    EPS,
    ROW_RULES,
    b_row_ok,
    contract_bound,
    dd_row_ok,
    exact_contract,
    exact_terms,
    float_contract,
    is_p_matrix,
)

TOL = 1e-9  # SearchBudget's default tol, which every workload uses


def p_verdict(data: np.ndarray, v: dict) -> list:
    """REFUTED P needs max_i t_i(w) <= 0 exactly; a row rule that fired
    must hold exactly; for m = 2 the verdict must agree with the
    principal-minor oracle."""
    out = []
    if v["verdict"] == "REFUTED":
        top = max(exact_terms(data, v["witness"]))
        if top > 0:
            out.append(f"P refuted by a witness whose exact max t_i is {float(top):.3g} > 0")
    out += _rules(data, v)
    if data.ndim == 2 and v["verdict"] in ("CERTIFIED", "REFUTED"):
        if is_p_matrix(data) != (v["verdict"] == "CERTIFIED"):
            out.append(f"P {v['verdict']} disagrees with the principal-minor oracle")
    return out


def p0_verdict(data: np.ndarray, v: dict) -> list:
    """REFUTED P0 needs the exact-support max of t_i(w) below 0."""
    out = []
    if v["verdict"] == "REFUTED":
        w = v["witness"]
        terms = exact_terms(data, w)
        top = max(t for t, wi in zip(terms, w) if wi != 0.0)
        if not top < 0:
            out.append(f"P0 refuted by a witness whose exact support max is {float(top):.3g} >= 0")
    return out + _rules(data, v)


def s_verdict(data: np.ndarray, v: dict) -> list:
    """A CERTIFIED S witness needs w > 0 and A w^(m-1) > 0 exactly."""
    if v["verdict"] != "CERTIFIED":
        return []
    w = v["witness"]
    if not all(wi > 0.0 for wi in w):
        return ["S witness is not strictly positive"]
    if not all(t > 0 for t in exact_contract(data, w)):
        return ["S witness has a component of A w^(m-1) that is not > 0 exactly"]
    return []


def consistent(p: dict, p0: dict) -> list:
    if p0["verdict"] == "REFUTED" and p["verdict"] == "CERTIFIED":
        return ["P0 REFUTED but P CERTIFIED"]
    return []


def _rules(data: np.ndarray, v: dict) -> list:
    out = []
    for link in v["chain"]:
        rule = ROW_RULES.get(link["rule"])
        if rule is not None and not rule(data):
            out.append(f"rule {link['rule']} fired but fails in exact arithmetic")
        if link["rule"].endswith("positive_diagonal") and not np.all(_diag(data) > 0.0):
            out.append(f"rule {link['rule']} fired without a positive diagonal")
    return out


def _diag(data: np.ndarray) -> np.ndarray:
    idx = np.arange(data.shape[0])
    return data[tuple([idx] * data.ndim)]


def unit(n: int, i: int) -> list:
    e = [0.0] * n
    e[i] = 1.0
    return e


# ---------------------------------------------------------------------------
# complementarity


def tcp_point(data: np.ndarray, q: np.ndarray, x) -> list:
    """x >= 0, F(x) >= 0 and |min(x, F(x))| <= tol, each within tol plus a
    rounding allowance, with F recomputed by the benchmark's contraction."""
    x = np.asarray(x, dtype=float)
    f = float_contract(data, x) + q
    slack = TOL + contract_bound(data, x) + 4.0 * EPS * np.abs(q)
    out = []
    if np.any(x < -slack):
        out.append("x has a component below -tol")
    if np.any(f < -slack):
        out.append("F(x) has a component below -tol")
    if np.any(np.abs(np.minimum(x, f)) > slack):
        out.append("natural residual exceeds tol")
    return out


def tcp_solve(data, q, sol: dict) -> list:
    if sol["status"] != "solved":
        return [f"no solution found for a P instance ({sol['status']})"]
    return tcp_point(data, q, sol["x"])


def tcp_explore(data, q, res: dict) -> list:
    sols = res["solutions"]
    if not sols:
        return ["explore found no solution for a P instance"]
    if data.ndim == 2 and len(sols) != 1:
        return [f"m = 2 P instance has one solution, explore found {len(sols)}"]
    return [p for s in sols for p in tcp_point(data, q, s["x"])]


# ---------------------------------------------------------------------------
# analyze reports


def report(data: np.ndarray, rep: dict, expect: dict) -> list:
    """Check one `ptensor analyze` report.  expect may name labels or
    verdicts the file's construction guarantees."""
    m, n = data.ndim, data.shape[0]
    out = []
    scale = float(np.max(np.abs(data)))
    gamma = 4.0 * (n ** (m - 1) + m) * EPS
    diag_min = float(np.min(_diag(data)))

    for pair in rep["eigenpairs"]["found"]:
        x = np.asarray(pair["x"])
        r = float_contract(data, x) - pair["lambda"] * x ** (m - 1)
        allow = contract_bound(data, x) + 4.0 * EPS * abs(pair["lambda"]) * np.abs(x) ** (m - 1)
        if np.any(np.abs(r) > TOL + allow):
            out.append(f"eigenpair lambda={pair['lambda']:.6g} residual {np.max(np.abs(r)):.3g}")

    cls = rep["classes"]
    cop = cls["copositive"]
    if cop["metrics"]["min_value"] > diag_min + gamma * scale:
        out.append("copositive minimum exceeds the form value at some e_i")
    if cop["verdict"] == "REFUTED":
        out += _negative_form(data, cop["witness"], "copositive", nonneg=True)
    psd = cls["psd"]
    if m % 2 == 0 and psd["metrics"]["min_value"] > diag_min + gamma * scale * n ** (m / 2):
        out.append("psd minimum exceeds the form value at some e_i")
    if psd["verdict"] == "REFUTED":
        out += _negative_form(data, psd["witness"], "psd", nonneg=False)

    for key, strict in (("diagonally_dominant", False), ("strictly_diagonally_dominant", True)):
        c = cls[key]
        if c["verdict"] == "REFUTED" and dd_row_ok(data, c["witness"], strict):
            out.append(f"{key} refuted at row {c['witness']}, which passes exactly")
    for key, strict in (("b_tensor", True), ("b0_tensor", False)):
        c = cls[key]
        if c["verdict"] == "REFUTED" and b_row_ok(data, c["witness"][0], strict):
            out.append(f"{key} refuted at row {c['witness'][0]}, which passes exactly")
    z = cls["z_tensor"]
    if z["verdict"] == "REFUTED" and not data[tuple(z["witness"])] > 0.0:
        out.append("z_tensor refuted at an entry that is not positive")

    pc = rep["pcheck"]
    out += p_verdict(data, pc["p"]) + p0_verdict(data, pc["p0"]) + s_verdict(data, pc["s"])
    out += consistent(pc["p"], pc["p0"])

    for path, want in expect.items():
        node = rep
        for k in path.split("."):
            node = node[k]
        if node != want:
            out.append(f"{path} is {node!r}, the construction guarantees {want!r}")
    return out


def _negative_form(data, w, what: str, nonneg: bool) -> list:
    if nonneg and any(v < 0.0 for v in w):
        return [f"{what} witness has a negative component"]
    ax = exact_contract(data, w)
    value = sum(Fraction(float(wi)) * a for wi, a in zip(w, ax))
    if not value < 0:
        return [f"{what} refuted with form value {float(value):.3g} >= 0 at the witness"]
    return []
