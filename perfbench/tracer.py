"""Spans around the calls into ptensor's public functions, recorded from
outside the package.

``Tracer.install`` replaces each listed function wherever a loaded
``ptensor.*`` module binds it, so calls between modules and inside one
module both pass through the wrapper.  Each call records a span: name,
start, end, parent span, operation id and up to two counts taken from
its arguments or result.  Spans stay in flat arrays in memory and are
written out once, when the run ends.  A listed name that the package no
longer defines is reported as absent.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from array import array

import numpy as np
from ptensor.budget import SearchBudget


def _budget_starts(args, kwargs) -> int:
    budget = kwargs.get("budget", args[1] if len(args) > 1 else None)
    return int((budget or SearchBudget()).starts)


def _check_outcome(args, kwargs, result):
    """(decided by a rule, refuted) for check_p / check_p0."""
    return float(bool(result.certificate_chain)), float(result.verdict == "REFUTED")


# name -> extractor(args, kwargs, result) -> (qty, qty2)
TARGETS = {
    "core.contract_m1": None,
    "core.contract_m1_jacobian": None,
    "core.contract_m1_batch": lambda a, k, r: (float(np.shape(a[1])[0]), 0.0),
    "core.contract_full": None,
    "core.as_vector": None,
    "classes.simplex_grid": lambda a, k, r: (float(r.shape[0]), 0.0),
    "classes.is_copositive": None,
    "classes.is_psd": None,
    "classes.is_diagonally_dominant": None,
    "classes.is_b_tensor": None,
    "classes.classify_m_tensor": None,
    "spectral.nqz_spectral_radius": lambda a, k, r: (float(r.iterations), 0.0),
    "spectral.find_h_eigenpairs": lambda a, k, r: (
        float(len(r)),
        float(a[0].dim + 1 + _budget_starts(a, k)),
    ),
    "pcheck.check_p": _check_outcome,
    "pcheck.check_p0": _check_outcome,
    "pcheck.check_s": None,
    "pcheck.phi_p": None,
    "pcheck.phi_p0": None,
    "pcheck.candidate_battery": None,
    "tcp.solve_tcp": None,
    "tcp.explore_solutions": lambda a, k, r: (float(len(r.solutions)), float(r.starts_tried)),
    "tcp.tcp_F": None,
    "tcp.jacobian_F": None,
    "tensorio.read_tensor": lambda a, k, r: (float(os.path.getsize(a[0])), 0.0),
    "tensorio.dumps_canonical": None,
    "cli.cmd_analyze": None,
}
NAMES = list(TARGETS)


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self.qty2 = array("d")
        self.op_id = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name_id: int, fn, extract):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.qty.append(0.0)
            self.qty2.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if extract is not None:
                try:
                    self.qty[idx], self.qty2[idx] = extract(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a changed signature or result leaves the counts at 0
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "ptensor" or k.startswith("ptensor."))]
        self.absent = []
        for name_id, full in enumerate(NAMES):
            mod_name, attr = full.split(".")
            owner = sys.modules.get("ptensor." + mod_name)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(full)
                continue
            wrapper = self._wrap(name_id, fn, TARGETS[full])
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched = []

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "qty": np.frombuffer(self.qty, dtype=np.float64).copy(),
            "qty2": np.frombuffer(self.qty2, dtype=np.float64).copy(),
        }

    def save(self, path: str, **extra) -> None:
        np.savez(path, names=np.array(NAMES), absent=np.array(self.absent, dtype=str),
                 **self.arrays(), **{k: np.asarray(v) for k, v in extra.items()})


def concat(parts: list) -> dict:
    """Join span arrays from several processes; parent indices are offset."""
    keys = ("name", "parent", "op", "start", "end", "qty", "qty2")
    out = {k: [] for k in keys}
    base = 0
    for p in parts:
        for k in keys:
            v = np.asarray(p[k])
            if k == "parent":
                v = np.where(v >= 0, v + base, -1)
            out[k].append(v)
        base += len(p["name"])
    return {k: np.concatenate(v) if v else np.zeros(0) for k, v in out.items()}


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the time covered by its direct child spans
    (calls on one thread nest, so children never overlap)."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur - child


def layer_metrics(spans: dict, import_times: list) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from joined spans."""
    names = spans["name"]
    selfs = self_times(spans)
    dur = spans["end"] - spans["start"]
    ids = {n: i for i, n in enumerate(NAMES)}

    def sel(n):
        return names == ids[n]

    def calls(n):
        return float(np.count_nonzero(sel(n)))

    def self_s(n):
        return float(selfs[sel(n)].sum())

    def qty(n, col="qty"):
        return float(spans[col][sel(n)].sum())

    out = {}
    for n in ("core.contract_m1", "core.contract_m1_jacobian", "core.contract_full"):
        out[n + ".calls"] = (calls(n), "count")
        out[n + ".self_s"] = (self_s(n), "s")
    out["core.contract_m1_batch.rows"] = (qty("core.contract_m1_batch"), "count")
    out["core.contract_m1_batch.self_s"] = (self_s("core.contract_m1_batch"), "s")
    out["core.as_vector.calls"] = (calls("core.as_vector"), "count")
    out["classes.simplex_grid.points"] = (qty("classes.simplex_grid"), "count")
    for n in ("classes.simplex_grid", "classes.is_copositive", "classes.is_psd",
              "classes.is_diagonally_dominant", "classes.is_b_tensor",
              "classes.classify_m_tensor"):
        out[n + ".self_s"] = (self_s(n), "s")
    n = "spectral.nqz_spectral_radius"
    out[n + ".calls"] = (calls(n), "count")
    out[n + ".iterations"] = (qty(n), "count")
    out[n + ".self_s"] = (self_s(n), "s")
    n = "spectral.find_h_eigenpairs"
    out[n + ".self_s"] = (self_s(n), "s")
    out[n + ".pairs"] = (qty(n), "count")
    out[n + ".pairs_per_start"] = (_ratio(qty(n), qty(n, "qty2")), "ratio")
    for n in ("pcheck.check_p", "pcheck.check_p0", "pcheck.check_s",
              "pcheck.candidate_battery"):
        out[n + ".self_s"] = (self_s(n), "s")
    out["pcheck.phi_p.calls"] = (calls("pcheck.phi_p"), "count")
    out["pcheck.phi_p0.calls"] = (calls("pcheck.phi_p0"), "count")
    checks = sel("pcheck.check_p") | sel("pcheck.check_p0")
    by_rule = checks & (spans["qty"] == 1.0)
    by_search = checks & (spans["qty"] == 0.0)
    out["pcheck.certify.ops"] = (float(np.count_nonzero(by_rule)), "count")
    out["pcheck.certify.s"] = (float(dur[by_rule].sum()), "s")
    out["pcheck.search.ops"] = (float(np.count_nonzero(by_search)), "count")
    out["pcheck.search.s"] = (float(dur[by_search].sum()), "s")
    out["pcheck.refuted_per_search"] = (
        _ratio(float(spans["qty2"][by_search].sum()), float(np.count_nonzero(by_search))),
        "ratio",
    )
    out["tcp.solve_tcp.self_s"] = (self_s("tcp.solve_tcp"), "s")
    out["tcp.explore_solutions.self_s"] = (self_s("tcp.explore_solutions"), "s")
    out["tcp.tcp_F.calls"] = (calls("tcp.tcp_F"), "count")
    out["tcp.jacobian_F.calls"] = (calls("tcp.jacobian_F"), "count")
    out["tcp.jacobian_F.self_s"] = (self_s("tcp.jacobian_F"), "s")
    n = "tcp.explore_solutions"
    out["tcp.solutions"] = (qty(n), "count")
    out["tcp.solutions_per_start"] = (_ratio(qty(n), qty(n, "qty2")), "ratio")
    out["tensorio.read_tensor.self_s"] = (self_s("tensorio.read_tensor"), "s")
    out["tensorio.read_tensor.bytes"] = (qty("tensorio.read_tensor"), "bytes")
    out["tensorio.dumps_canonical.self_s"] = (self_s("tensorio.dumps_canonical"), "s")
    out["cli.cmd_analyze.self_s"] = (self_s("cli.cmd_analyze"), "s")
    out["process.import_s"] = (
        statistics.median(import_times) if import_times else 0.0, "s")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
