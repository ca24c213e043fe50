"""One workload process of the benchmark (started by run.py).

Imports the package, builds the workload from its seed, warms up, and
prints READY: run.py times set-up from process start to that line.  Then
it runs the closed loop, checks every op, and prints one RESULT line.

Untraced run: ops for --seconds of op time, end-to-end metrics.
Traced run: the same ops twice, first untraced for half of --seconds, then
traced, then a traced layer probe and a microbenchmark phase; per-layer
metrics and the tracing overhead (traced against untraced time for
identical ops).
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-op", type=int, default=-1)
    ap.add_argument("--probe", action="store_true", help="exit after set-up")
    ap.add_argument("--spans-dir", default=None)
    return ap.parse_args(argv)


class Loop:
    """The closed-loop client: runs ops in whole cycles, times each op,
    checks it outside the timing, and tallies failures."""

    def __init__(self, workload, corrupt_op):
        self.wl = workload
        self.corrupt_op = corrupt_op
        self.inputs = []
        self.attempted = 0
        self.failed_ops = set()

    def _input(self, k):
        while len(self.inputs) <= k:
            self.inputs.append(self.wl.op_input(len(self.inputs)))
        return self.inputs[k]

    def _one(self, op_id, inp, tracer):
        """Run, time and check one op; return its wall time."""
        out = None
        ok = True
        span = contextlib.nullcontext() if tracer is None else tracer.span("bench.op")
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            with span:
                out = self.wl.run(inp)
        except Exception:
            traceback.print_exc()
            ok = False
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        self.attempted += 1
        if ok:
            if op_id == self.corrupt_op:
                out = self.wl.corrupt(out)
            try:
                ok = self.wl.check(op_id, inp, out)
            except Exception:
                traceback.print_exc()
                ok = False
        if not ok:
            self.failed_ops.add(op_id)
        return dt

    def timed(self, budget):
        """Run whole cycles until `budget` seconds of op time are spent."""
        times = []
        k = 0
        while sum(times) < budget:
            for _ in range(self.wl.cycle):
                times.append(self._one(k, self._input(k), None))
                k += 1
        return times

    def replay(self, n, tracer):
        """Run the first n ops again (new op ids) with tracing on."""
        first = self.attempted
        return [self._one(first + k, self._input(k), tracer) for k in range(n)]

    def finish(self):
        """Run the workload's whole-run checks; return the failed op count."""
        extra, failed = self.wl.finish()
        self.attempted += extra
        return len(self.failed_ops | set(failed))


def end_to_end(times):
    """Throughput and latency of the timed ops, and peak memory so far."""
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (1e3 * float(np.percentile(times, 50)), "ms"),
        "op_ms_p90": (1e3 * float(np.percentile(times, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def fingerprint():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None):
    args = parse_args(argv)
    import stasep.cli  # noqa: F401  (the whole package, as a user's first call pays it)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    wl.warm_up()
    print("READY", flush=True)
    if args.probe:
        return 0

    loop = Loop(wl, args.corrupt_op)
    result = {"meta": fingerprint()}
    if args.trace == 0:
        times = loop.timed(args.seconds)
        metrics = end_to_end(times)
        n_failed = loop.finish()
        metrics["ok_ratio"] = (1.0 - n_failed / loop.attempted, "ratio")
        result["ops"] = len(times)
    else:
        from layers import layer_probe, microbenchmarks, per_layer_metrics
        from tracer import Tracer

        plain = loop.timed(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.replay(len(plain), tracer)
        finally:
            tracer.uninstall()
        probe = Tracer()
        probe.install()
        probe.active = True
        try:
            layer_probe(args.seed)
        finally:
            probe.active = False
            probe.uninstall()
        metrics = per_layer_metrics(tracer, plain, traced, probe)
        metrics.update(microbenchmarks(args.seed))
        n_failed = loop.finish()
        result["ops"] = len(plain)
        if args.spans_dir:
            out = Path(args.spans_dir)
            out.mkdir(parents=True, exist_ok=True)
            tracer.save(out / f"spans-{args.workload}-seed{args.seed}.npz")
    result.update(
        attempted=loop.attempted,
        failed=n_failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
