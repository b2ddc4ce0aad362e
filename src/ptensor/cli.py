"""Command line front end.

Subcommands:
    analyze  full classification report for a tensor file
    pcheck   one sign-property check (p | p0 | s)
    tcp      solve or explore a complementarity instance
    gen      write structured tensor files (seed deterministic)
    repro    built-in golden self check with exact expected values

Reports are deterministic JSON: same inputs and flags give byte-identical
output.  Verdicts never drive nonzero exit codes (a refutation is a
successful analysis); only usage errors (2), unreadable/malformed inputs
(3) and a failed golden self check (1) do.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .budget import SearchBudget
from .classes import (
    cauchy_tensor,
    classify_m_tensor,
    cp_tensor,
    dnn_consistency,
    is_b_tensor,
    is_copositive,
    is_diagonally_dominant,
    is_h_tensor,
    is_psd,
    is_z_tensor,
    laplacian_tensors,
)
from .core import Tensor, all_ones_tensor, contract_m1, identity_tensor, symmetry_deviation
from .errors import ParseError, PTensorError
from .generators import random_m_tensor, random_tensor, reference_counterexample
from .pcheck import basis_p0_tensor, check_p, check_p0, check_s, hull_membership, phi_p0
from .spectral import find_h_eigenpairs
from .tcp import explore_solutions, solve_tcp
from .tensorio import (
    dumps_canonical,
    read_factors,
    read_hypergraph,
    read_tcp_instance,
    read_tensor,
    require_size,
    tensor_to_json_dict,
    write_tensor,
    write_text,
)

EXIT_OK = 0
EXIT_GOLDEN_FAIL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


def _budget_from_args(args) -> SearchBudget:
    """The SearchBudget from the subcommand's budget flags, defaults for the
    rest; ValueError for an invalid value."""
    names = {f.name for f in dataclasses.fields(SearchBudget)}
    return SearchBudget(**{k: v for k, v in vars(args).items() if k in names})


def _add_flags(parser: argparse.ArgumentParser, *fields: str) -> None:
    """--FIELD for each named SearchBudget field (--grid-depth for
    grid_depth), then --out."""
    defaults = SearchBudget()
    for name in fields:
        default = getattr(defaults, name)
        parser.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=type(default),
            # argparse converts a string default with type, so a non-integer
            # $PTENSOR_SEED is a usage error
            default=os.environ.get("PTENSOR_SEED", default) if name == "seed" else default,
            help="base RNG seed (default: $PTENSOR_SEED or 0)" if name == "seed" else None,
        )
    parser.add_argument("--out", default=None, help="write the report to a file")


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    A = read_tensor(args.tensor)
    budget = args.budget
    pairs = find_h_eigenpairs(A, budget)
    diag = A.diagonal()
    report = {
        "input": args.tensor,
        "order": A.order,
        "dim": A.dim,
        "symmetric_flag": bool(A.symmetric),
        "symmetry_max_deviation": symmetry_deviation(A.data),
        "diagonal": {
            "values": [float(v) for v in diag],
            "min": float(np.min(diag)),
            "positive": bool(np.all(diag > 0.0)),
            "nonnegative": bool(np.all(diag >= 0.0)),
        },
        "classes": {
            "diagonally_dominant": is_diagonally_dominant(A, strict=False).to_json_dict(),
            "strictly_diagonally_dominant": is_diagonally_dominant(A, strict=True).to_json_dict(),
            "z_tensor": is_z_tensor(A).to_json_dict(),
            "m_tensor": classify_m_tensor(A).to_json_dict(),
            "h_tensor": is_h_tensor(A).to_json_dict(),
            "b_tensor": is_b_tensor(A, strict=True).to_json_dict(),
            "b0_tensor": is_b_tensor(A, strict=False).to_json_dict(),
            "copositive": is_copositive(A, budget).to_json_dict(),
            "psd": is_psd(A, budget).to_json_dict(),
            "dnn": dnn_consistency(A, pairs).to_json_dict(),
            "p0_hull": hull_membership(A).to_json_dict(),
        },
        "pcheck": {
            "p": check_p(A, budget).to_json_dict(),
            "p0": check_p0(A, budget).to_json_dict(),
            "s": check_s(A, budget).to_json_dict(),
        },
        "eigenpairs": {
            "found": [p.to_json_dict() for p in pairs],
            "count": len(pairs),
            "all_positive": bool(all(p.value > 0.0 for p in pairs)) if pairs else None,
        },
        "budget": budget.to_json_dict(),
    }
    write_text(dumps_canonical(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pcheck


def cmd_pcheck(args) -> int:
    A = read_tensor(args.tensor)
    budget = args.budget
    checks = {"p": check_p, "p0": check_p0, "s": check_s}
    verdict = checks[args.property](A, budget)
    write_text(dumps_canonical(verdict.to_json_dict()), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# tcp


def cmd_tcp(args) -> int:
    inst = read_tcp_instance(args.instance)
    budget = args.budget
    if args.explore:
        report = explore_solutions(inst, budget).to_json_dict()
    else:
        report = solve_tcp(inst, budget).to_json_dict()
    write_text(dumps_canonical(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def _parse_float_list(text: str) -> list:
    try:
        return [float(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma separated number list, got {text!r}")


def _parse_int_list(text: str) -> list:
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma separated integer list, got {text!r}")


def cmd_gen(args, parser: argparse.ArgumentParser) -> int:
    kind = args.kind

    def need(flag, value):
        if value is None:
            parser.error(f"gen {kind} requires {flag}")

    def shape(m, n):
        """Usage error, before anything is allocated, unless an order-m,
        dimension-n tensor is one that read_tensor accepts."""
        if m < 2 or n < 1:
            parser.error(f"gen {kind} needs order >= 2 and dimension >= 1, got {m} and {n}")
        try:
            require_size(m, n)
        except ParseError as exc:
            parser.error(str(exc))

    if kind in ("identity", "allones", "random", "mtensor"):
        need("--m", args.m), need("--n", args.n)
        shape(args.m, args.n)
    if kind == "identity":
        A = identity_tensor(args.m, args.n)
    elif kind == "allones":
        A = all_ones_tensor(args.m, args.n)
    elif kind == "random":
        A = random_tensor(args.m, args.n, seed=args.seed, symmetric=args.symmetric)
    elif kind == "mtensor":
        A = random_m_tensor(args.m, args.n, seed=args.seed, margin=args.margin)
    elif kind == "cauchy":
        need("--u", args.u), need("--m", args.m)
        shape(args.m, len(args.u))
        A = cauchy_tensor(np.array(args.u), args.m)
    elif kind == "laplacian":
        need("--hypergraph", args.hypergraph)
        G = read_hypergraph(args.hypergraph)
        adjacency, laplacian, signless = laplacian_tensors(G)
        A = {"adjacency": adjacency, "laplacian": laplacian, "signless": signless}[args.which]
    elif kind == "cp":
        need("--factors", args.factors), need("--m", args.m)
        factors = read_factors(args.factors)
        shape(args.m, factors.dim)
        A = cp_tensor(factors, args.m)
    elif kind == "basis_p0":
        need("--indices", args.indices), need("--n", args.n)
        shape(len(args.indices), args.n)
        if not all(0 <= i < args.n for i in args.indices):
            parser.error(f"gen basis_p0 --indices must lie in [0, {args.n})")
        A = basis_p0_tensor(tuple(args.indices), dim=args.n, negate=args.negate)
    else:  # pragma: no cover - argparse choices guard this
        parser.error(f"unknown kind {kind!r}")

    if args.out:
        write_tensor(A, args.out)
        write_text(args.out)
    else:
        write_text(dumps_canonical(tensor_to_json_dict(A)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro


def cmd_repro(args) -> int:
    """Golden self check on the built-in reference tensor.

    Expected exactly (up to 1e-12): the weak-sign functional terms at
    y = (0, 1, -1) are -0.5 at index 1 and -1 at index 2; the weak property
    check refutes with a strictly negative functional; and every H-eigenpair
    found at seed 0 with 200 starts has a positive eigenvalue.
    """
    A = reference_counterexample()
    if getattr(args, "corrupt", False):
        data = A.data.copy()
        data[1, 1, 1] += 1.0  # negative control for the test harness
        A = Tensor(data, symmetric=True)
    y = np.array([0.0, 1.0, -1.0])
    ay = contract_m1(A, y)
    terms = y**2 * ay
    golden = {"term_index_1": -0.5, "term_index_2": -1.0}
    checks = []
    checks.append(
        ("functional term at index 1 equals -0.5",
         abs(terms[1] - golden["term_index_1"]) <= 1e-12, float(terms[1])))
    checks.append(
        ("functional term at index 2 equals -1",
         abs(terms[2] - golden["term_index_2"]) <= 1e-12, float(terms[2])))

    budget = dataclasses.replace(args.budget, starts=200)
    verdict = check_p0(A, budget)
    witness_ok = verdict.refuted and verdict.functional_value is not None
    if witness_ok:
        witness_ok = phi_p0(A, verdict.witness, budget.tau_rel) < 0.0
    checks.append(("weak sign property refuted with a negative-functional witness",
                   witness_ok,
                   None if verdict.functional_value is None else float(verdict.functional_value)))

    pairs = find_h_eigenpairs(A, budget)
    checks.append(
        ("all found H-eigenvalues positive",
         len(pairs) > 0 and all(p.value > 0.0 for p in pairs),
         [float(p.value) for p in pairs]))

    passed = all(ok for _, ok, _ in checks)
    report = {
        "status": "pass" if passed else "fail",
        "golden": golden,
        "checks": [{"name": name, "pass": bool(ok), "value": val} for name, ok, val in checks],
        "p0_verdict": verdict.to_json_dict(),
        "eigenvalues_found": [float(p.value) for p in pairs],
    }
    if args.json:
        write_text(dumps_canonical(report), args.out)
    else:
        lines = []
        for name, ok, val in checks:
            mark = "PASS" if ok else "FAIL"
            shown = "" if val is None else f" (got {val})"
            lines.append(f"[{mark}] {name}{shown}")
        lines.append("golden self check: " + ("PASS" if passed else "FAIL"))
        write_text("\n".join(lines), args.out)
    if not passed and not args.json:
        for name, ok, val in checks:
            if not ok:
                sys.stderr.write(f"expected vs actual diff: {name}: got {val}\n")
    return EXIT_OK if passed else EXIT_GOLDEN_FAIL


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptensor",
        description="sign-property certification, structured tensor classes, "
        "H-eigenpairs and complementarity solving for dense tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full classification report")
    p_analyze.add_argument("tensor", help="tensor JSON file")
    _add_flags(p_analyze, "seed", "starts", "iters", "grid_depth", "tol", "tau_rel")

    p_pcheck = sub.add_parser("pcheck", help="one sign-property check")
    p_pcheck.add_argument("tensor", help="tensor JSON file")
    p_pcheck.add_argument("property", choices=("p", "p0", "s"))
    _add_flags(p_pcheck, "seed", "starts", "iters", "tol", "tau_rel")

    p_tcp = sub.add_parser("tcp", help="solve a complementarity instance")
    p_tcp.add_argument("instance", help="instance JSON file")
    p_tcp.add_argument("--explore", action="store_true",
                       help="multistart exploration instead of a single solve")
    _add_flags(p_tcp, "seed", "starts", "iters", "tol")

    p_gen = sub.add_parser("gen", help="write structured tensor files")
    p_gen.add_argument(
        "kind",
        choices=("identity", "allones", "mtensor", "cauchy", "laplacian", "cp",
                 "basis_p0", "random"),
    )
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--margin", type=float, default=1.0)
    p_gen.add_argument("--u", type=_parse_float_list, default=None,
                       help="cauchy generating vector, e.g. 1,2,3")
    p_gen.add_argument("--hypergraph", default=None, help="hypergraph JSON file")
    p_gen.add_argument("--which", choices=("adjacency", "laplacian", "signless"),
                       default="laplacian")
    p_gen.add_argument("--factors", default=None, help="factors JSON file")
    p_gen.add_argument("--indices", type=_parse_int_list, default=None,
                       help="basis index tuple, e.g. 0,1,1")
    p_gen.add_argument("--negate", action="store_true")
    p_gen.add_argument("--symmetric", action="store_true")
    _add_flags(p_gen, "seed")

    p_repro = sub.add_parser("repro", help="golden self check")
    p_repro.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_repro.add_argument("--json", action="store_true", help="JSON report instead of text")
    _add_flags(p_repro, "tol")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.budget = _budget_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "pcheck":
            return cmd_pcheck(args)
        if args.command == "tcp":
            return cmd_tcp(args)
        if args.command == "gen":
            return cmd_gen(args, parser)
        if args.command == "repro":
            return cmd_repro(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except PTensorError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    parser.error("no command given")  # pragma: no cover
    return EXIT_USAGE  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
