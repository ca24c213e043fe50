"""In-memory spans around the calls into each stasep layer.

Tracing works from outside the package: `install` rebinds the public
callables that one layer calls in another (module attributes and class
attributes) to wrappers that record a span per call, and `uninstall` puts
the originals back.  Nothing in `src/` knows about it.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run is going and are written out once at the end.  A span's self time is
its duration minus the durations of its direct children; since one thread
makes properly nested calls, the self times of all spans under an op add
up to that op's wall time exactly.
"""

import contextlib
import time
import weakref
from array import array

import numpy as np

# Branch joints of specfun.airy_ai (the comparisons it dispatches on).
AIRY_BRANCHES = ("asym_neg", "cheb_neg", "maclaurin", "cheb_pos", "asym_pos")
AIRY_JOINTS = (-7.6, -4.3, 3.95, 7.6)


def airy_branch_counts(x):
    """Number of arguments falling in each airy_ai branch."""
    x = np.asarray(x, dtype=float).ravel()
    xa, xb, xc, xd = AIRY_JOINTS
    below_b = int(np.count_nonzero(x <= xb))
    below_c = int(np.count_nonzero(x < xc))
    below_d = int(np.count_nonzero(x < xd))
    asym_neg = int(np.count_nonzero(x < xa))
    return (
        asym_neg,
        below_b - asym_neg,
        below_c - below_b,
        below_d - below_c,
        x.size - below_d,
    )


class Tracer:
    """Span recorder.  `work` holds a count per span (cells, samples, events)
    taken from the call's inputs or outputs."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self.airy_branch_evals = [0] * len(AIRY_BRANCHES)
        self._det_done = weakref.WeakSet()
        self._patches = []
        # spans are recorded only while a benchmark op runs, so the
        # correctness checks between ops leave no spans
        self.active = False

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn, work=None):
        """`fn` recording one span per call; `work(args, kwargs, result)`
        gives the span's work count (default 1)."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            self.work[i] = 1.0 if work is None else work(args, kwargs, out)
            return out

        return traced

    def _count_airy(self, args, kwargs, out):
        # branch counting is tracer bookkeeping: give it a span of its own so
        # its cost is charged neither to airy_ai nor to the caller
        with self.span("trace.count"):
            counts = airy_branch_counts(args[0])
        for k, c in enumerate(counts):
            self.airy_branch_evals[k] += c
        return float(sum(counts))

    def _count_det(self, args, kwargs, out):
        system = args[0]
        if system in self._det_done:
            return 0.0
        self._det_done.add(system)
        return 1.0

    def _rebind(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Rebind the layer-boundary callables of stasep to traced wrappers."""
        from stasep import limitlaw, lpp, rng, scaling, specfun, tasep, weights

        cells = lambda a, k, out: float(np.size(out))

        def lpp_cells(a, k, out):
            xmax = max(int(p[0]) for p in a[3])
            ymax = max(int(p[1]) for p in a[3])
            return float(out.shape[0] * (xmax + 1) * (ymax + 1))

        nystrom = limitlaw.NystromSystem
        targets = [
            # (owner, attribute, span name, work count from the call)
            (lpp, "BatchWeights", "weights.batch_init", lambda a, k, out: float(len(out.keys))),
            (weights.BatchWeights, "row", "weights.row", cells),
            (lpp, "last_passage_batch", "lpp.last_passage_batch", lpp_cells),
            (scaling, "rescale_sample", "scaling.rescale_sample", cells),
            (tasep, "lpp_bridge_check", "tasep.lpp_bridge_check", None),
            (tasep, "evolve", "tasep.evolve", lambda a, k, out: float(len(out[1].times))),
            (tasep.WaitingTimes, "omega_row", "tasep.omega_row", None),
            (tasep, "queue_exit_time", "tasep.queue_exit_time", None),
            (limitlaw, "airy_ai", "specfun.airy_ai", self._count_airy),
            (limitlaw, "legendre_rule", "specfun.rules", None),
            (limitlaw, "composite_rule", "specfun.rules", None),
            (limitlaw, "limit_cdf", "limitlaw.limit_cdf", None),
            (nystrom, "__init__", "limitlaw.nystrom", None),
            (nystrom, "resolvent_inner", "limitlaw.resolvent_inner", None),
            (limitlaw, "def11_terms", "limitlaw.def11_terms", None),
        ]
        for owner, attr, name, work in targets:
            self._rebind(owner, attr, self.wrap(name, getattr(owner, attr), work))
        self._rebind(nystrom, "det", property(self.wrap("limitlaw.det", nystrom.det.fget, self._count_det)))
        # rng is entered from weights (BatchWeights), tasep (clocks and
        # occupations) and SeedSpec.key inside rng itself
        stream_key = self.wrap("rng.stream_key", rng.stream_key)
        uniform_oc = self.wrap("rng.uniform_oc", rng.uniform_oc, cells)
        for mod in (rng, weights):
            self._rebind(mod, "stream_key", stream_key)
        for mod in (weights, tasep):
            self._rebind(mod, "uniform_oc", uniform_oc)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays, with self times."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "start": start,
            "duration": dur,
            "self": dur - child,
            "work": np.frombuffer(self.work, dtype=float),
        }

    def totals(self):
        """Per span name: calls, summed duration, summed self time, summed work."""
        a = self.arrays()
        n = len(self.names)
        ids = a["name_id"]
        calls = np.bincount(ids, minlength=n)
        sums = {k: np.bincount(ids, weights=a[k], minlength=n) for k in ("duration", "self", "work")}
        return {
            name: {
                "calls": int(calls[i]),
                "duration": float(sums["duration"][i]),
                "self": float(sums["self"][i]),
                "work": float(sums["work"][i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)

