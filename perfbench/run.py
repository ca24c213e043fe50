"""Benchmark of stasep: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Workloads: mc-critical, mc-small, limit-law, tasep-bridge (see README.md).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  A summary goes first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Every workload
process runs with BLAS pinned to one thread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-critical", "mc-small", "limit-law", "tasep-bridge")
SETUP_RUNS = 3  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small batches and grids (self-test)")
    ap.add_argument("--corrupt-op", type=int, default=-1, help="corrupt this op's output (self-test)")
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, probe, deadline):
    """Start one workload process; return (set-up seconds, its stdout lines
    after READY, exit code)."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--corrupt-op", str(args.corrupt_op),
        "--spans-dir", str(ROOT / ".bench_out"),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        setup = None
        lines = []
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    return setup, lines, code


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "stasep" / "__init__.py").is_file():
        print(f"error: no stasep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    n_setups = 1 if (args.tiny or args.trace) else SETUP_RUNS
    setups = []
    for _ in range(n_setups - 1):
        setup, _, code = run_child(args, True, deadline)
        if setup is None or code != 0:
            print("error: set-up probe failed", file=sys.stderr)
            return 1
        setups.append(setup)
    setup, lines, code = run_child(args, False, deadline)
    results = [l for l in lines if l.startswith("RESULT ")]
    if setup is None or code != 0 or not results:
        print(f"error: workload process failed (exit code {code})", file=sys.stderr)
        return 1
    setups.append(setup)
    res = json.loads(results[-1][len("RESULT "):])
    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}

    ops = res["ops"]
    meta = dict(
        res["meta"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        ops=ops,
        attempted=res["attempted"],
        setup_runs_s=setups,
        src_lines=src_lines(),
    )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  timed ops {ops}")
    for name, m in metrics.items():
        note = ""
        if name == "op_ms_p90":
            note = f"  (n={ops} ops" + ("; fewer than 100, so under ten ops lie beyond it)" if ops < 100 else ")")
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<40} {res['failed'] / res['attempted']:>14.6g}  ({res['failed']} of {res['attempted']} ops)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
