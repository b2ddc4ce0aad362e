"""ptensor benchmark.  From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the workload and prints the end-to-end metrics;
--trace 1 makes the traced run and prints the per-layer metrics.  Each
measurement runs in a fresh worker process, with BLAS and OpenMP pinned to
one thread.  Set-up time is the median over three fresh processes: two
that only set up, and the measured one.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze-cli", "sign-search", "certify-sweep", "tcp-explore")
SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0  # a run must end within 180 s

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
             "peak_rss_mb": "MB"}


_workers = []  # the running worker, so that a signal to run.py stops it too


def _stop(signum, frame):
    for proc in _workers:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def start_worker(args, mode, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    _workers.append(proc)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its analyze subprocesses
        proc.communicate()
        sys.exit(f"{args.workload} {mode} worker did not finish in time")
    finally:
        _workers.remove(proc)
    if proc.returncode != 0:
        sys.exit(f"{args.workload} {mode} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    if not os.path.isfile(os.path.join(ROOT, "src", "ptensor", "__init__.py")):
        sys.exit(f"no ptensor sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(os.path.join(HERE, "_run"), exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        res = start_worker(args, "trace", deadline)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    else:
        setups = [start_worker(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_ONLY_RUNS)]
        res = start_worker(args, "measure", deadline)
        res["setup_s"] = statistics.median(setups + [res["setup_s"]])
        print(json.dumps({"rounds": res["rounds"], "setup_runs_s": setups}))
        metrics = {k: {"value": res[k], "unit": u} for k, u in E2E_UNITS.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
