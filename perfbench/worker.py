"""One workload in one fresh process; started by run.py.

Modes:
    setup    build inputs and warm up, report the set-up time, exit
    measure  set up, then run whole rounds of the workload's operations
             until --seconds would be exceeded, checking every output
    trace    for every workload: one untraced round, then one traced
             round; report the per-layer metrics from the spans

The last line of standard output is one JSON object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import ptensor  # noqa: E402
from scipy.special import betainc  # noqa: E402

if os.path.dirname(os.path.abspath(ptensor.__file__)) != os.path.join(SRC, "ptensor"):
    sys.exit(f"ptensor was imported from {ptensor.__file__}, not from {SRC}")

import tracer  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def cpu_now() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0  # ru_maxrss is in KiB on Linux


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all
    order statistics.  Unlike the sample median it moves smoothly when the
    latencies of two different operations trade places."""
    x = np.sort(np.asarray(values, dtype=float))
    a = (len(x) + 1) / 2.0
    w = np.diff(betainc(a, a, np.arange(len(x) + 1) / len(x)))
    return float(np.dot(w, x))


def run_round(ops, trace=None):
    """Run every op once.  Returns outputs, per-op latencies, the round's
    wall time and its CPU time (this process and its children)."""
    outputs, lat = {}, []
    cpu0 = cpu_now()
    w0 = time.perf_counter()
    for op in ops:
        if trace is not None:
            trace.next_op()
        t0 = time.perf_counter()
        try:
            out = op.run(trace)
        except Exception:  # an op that raises is a failed op, not a crashed run
            out = _Raised(traceback.format_exc())
        lat.append(time.perf_counter() - t0)
        outputs[op.key] = out
    wall = time.perf_counter() - w0
    return outputs, lat, wall, cpu_now() - cpu0


class _Raised:
    def __init__(self, text):
        self.text = text


def check_round(ops, outputs) -> list:
    """(key, problems) for every op whose output fails its checks."""
    failed = []
    for op in ops:
        out = outputs[op.key]
        if isinstance(out, _Raised):
            failed.append((op.key, [out.text.strip().splitlines()[-1]]))
            continue
        try:
            problems = op.check(out)
        except Exception:
            problems = ["checker raised: " + traceback.format_exc().strip().splitlines()[-1]]
        if problems:
            failed.append((op.key, problems))
    return failed


def canon(ops, outputs) -> dict:
    return {op.key: (None if isinstance(outputs[op.key], _Raised) else op.canon(outputs[op.key]))
            for op in ops}


def report_failures(name, failed) -> None:
    for key, problems in failed:
        sys.stderr.write(f"{name} {key}: FAILED: {'; '.join(problems)}\n")


class TraceContext:
    """Operation ids and span files for one traced run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.tracer = tracer.Tracer()
        self.op_id = -1
        self.files = []

    def next_op(self):
        self.op_id += 1
        self.tracer.op_id = self.op_id

    def span_path(self) -> str:
        path = os.path.join(self.workdir, f"spans-{len(self.files)}.npz")
        self.files.append(path)
        return path


def build(name, seed, workdir):
    return workloads.WORKLOADS[name](seed, workdir, child_env(), HERE)


def measure(args, workdir) -> dict:
    ops, warm = build(args.workload, args.seed, workdir)
    run_round(warm)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        return {"setup_s": setup_s}

    walls, cpus, lats = [], [], []
    attempted = failed = 0
    correct = True
    first = None
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        outputs, lat, wall, cpu = run_round(ops)
        walls.append(wall)
        cpus.append(cpu)
        lats += lat
        text = canon(ops, outputs)
        if text != first:
            # Outputs equal to the first round's pass or fail as they did.
            if first is not None:
                correct = False
                sys.stderr.write(f"{args.workload}: outputs differ between rounds\n")
            first = text
            bad = check_round(ops, outputs)
            report_failures(args.workload, bad)
        attempted += len(ops)
        failed += len(bad)
        used = time.perf_counter() - start
        if used + (time.perf_counter() - r0) > args.seconds:
            break
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(walls),
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "op_p50_ms": 1000.0 * hd_median(lats),
        "peak_rss_mb": peak_rss_mb(),
    }


def trace(args, workdir) -> dict:
    """Untraced then traced round of every workload; per-layer metrics from
    the traced rounds; attempted and failed of the named workload."""
    ctx = TraceContext(workdir)
    attempted = failed = 0
    correct = True
    overhead = {}
    for name in workloads.WORKLOADS:
        ops, warm = build(name, args.seed, workdir)
        run_round(warm)
        plain, _, plain_wall, _ = run_round(ops)
        ctx.tracer.install()
        try:
            traced, _, traced_wall, _ = run_round(ops, ctx)
        finally:
            ctx.tracer.uninstall()
        overhead[name] = [plain_wall, traced_wall]
        if canon(ops, plain) != canon(ops, traced):
            correct = False
            sys.stderr.write(f"{name}: traced outputs differ from untraced outputs\n")
        bad = check_round(ops, plain) + check_round(ops, traced)
        report_failures(name, bad)
        if name == args.workload:
            attempted, failed = 2 * len(ops), len(bad)
    absent = set(ctx.tracer.absent)
    parts, imports = [ctx.tracer.arrays()], []
    for path in ctx.files:
        with np.load(path) as z:
            parts.append({k: z[k] for k in z.files})
            imports.append(float(z["import_s"]))
            absent.update(str(a) for a in z["absent"])
    spans = tracer.concat(parts)
    np.savez(os.path.join(HERE, "_run", "trace.npz"), names=np.array(tracer.NAMES), **spans)
    print(json.dumps({"trace_overhead_s": overhead, "absent": sorted(absent),
                      "spans": int(len(spans["name"]))}))
    metrics = tracer.layer_metrics(spans, imports)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when run.py started this process")
    args = ap.parse_args()
    workdir = os.path.join(HERE, "_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = trace(args, workdir) if args.mode == "trace" else measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
