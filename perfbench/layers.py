"""Per-layer metrics of a traced run, and the microbenchmark phase.

Layers are the stasep modules rng, weights, lpp, scaling, tasep, specfun
and limitlaw.  Counts are per op (per instance for tasep, per point for
limitlaw), so a metric does not depend on how many ops fitted in the run.
Times are self times (span minus child spans) unless a name says
otherwise.  A count of a layer the workload does not call reads 0; a time
of such a layer comes from the layer probe, one small traced call into
every layer made after the workload's ops.
"""

import time

import numpy as np

from tracer import AIRY_BRANCHES

LAYERS = ("rng", "weights", "lpp", "scaling", "tasep", "specfun", "limitlaw")

# arguments of each airy_ai branch, for branch-pure microbenchmark arrays
AIRY_RANGES = {
    "asym_neg": (-40.0, -7.6),
    "cheb_neg": (-7.6, -4.3),
    "maclaurin": (-4.3, 3.95),
    "cheb_pos": (3.95, 7.6),
    "asym_pos": (7.6, 60.0),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_probe(seed):
    """One small call into every layer (a 64-sample LPP batch of 41 x 41
    cells with its rescale, five bridge instances, one m=1 limit_cdf point)."""
    from stasep import limitlaw, lpp, scaling, tasep, weights

    r = np.random.default_rng([seed, 6])
    master = int(r.integers(1, 2**62))
    g = lpp.last_passage_batch(weights.ModelParams.two_sided(0.5), master, range(64), [(40, 40)])
    scaling.rescale_sample(scaling.ScalingFrame(T=500.0, rho=0.5), 0.0, g[:, 0])
    for k in range(5):
        x, y = (int(v) for v in r.integers(1, 21, size=2))
        t_end = 2.0 * (x + y) + 6 * 2.2 * (x + y) ** (1.0 / 3.0)
        tasep.lpp_bridge_check(master, k, x, y, np.linspace(0.0, t_end, 50))
    limitlaw.limit_cdf(limitlaw.MultiPointSpec((0.0,), (float(r.uniform(-2.0, 2.0)),)))


def per_layer_metrics(tracer, plain, traced, probe):
    """`plain` and `traced` are the op times of the same ops without and with
    tracing; `probe` traced `layer_probe`."""
    empty = {"calls": 0, "duration": 0.0, "self": 0.0, "work": 0.0}
    tot, probed = tracer.totals(), probe.totals()
    # n: the workload's own spans; t: the same, or the probe's spans where
    # the workload never made the call
    n = lambda name: tot.get(name, empty)
    t = lambda name: n(name) if n(name)["calls"] else probed.get(name, empty)
    ops = len(traced)
    # the traced wall time is the summed duration of the op spans; `traced`
    # also holds the cost of opening and closing them
    wall = n("bench.op")["duration"]

    key, uoc = t("rng.stream_key"), t("rng.uniform_oc")
    init, row = t("weights.batch_init"), t("weights.row")
    batch, rescale = t("lpp.last_passage_batch"), t("scaling.rescale_sample")
    bridge, evolve = t("tasep.lpp_bridge_check"), t("tasep.evolve")
    omega, exit_ = t("tasep.omega_row"), t("tasep.queue_exit_time")
    airy, cdf, nys = t("specfun.airy_ai"), t("limitlaw.limit_cdf"), t("limitlaw.nystrom")
    det, res, d11 = t("limitlaw.det"), t("limitlaw.resolvent_inner"), t("limitlaw.def11_terms")
    inst, points = n("tasep.lpp_bridge_check")["calls"], n("limitlaw.limit_cdf")["calls"]

    m = {
        "rng.stream_key.calls": (_ratio(n("rng.stream_key")["calls"], ops), "count"),
        "rng.stream_key.us_per_call": (1e6 * _ratio(key["self"], key["calls"]), "us"),
        "rng.uniform_oc.calls": (_ratio(n("rng.uniform_oc")["calls"], ops), "count"),
        "rng.uniform_oc.cells": (_ratio(n("rng.uniform_oc")["work"], ops), "count"),
        "rng.uniform_oc.ns_per_cell": (1e9 * _ratio(uoc["self"], uoc["work"]), "ns"),
        "weights.batch_init.us_per_sample": (1e6 * _ratio(init["self"], init["work"]), "us"),
        "weights.row.ns_per_cell": (1e9 * _ratio(row["self"], row["work"]), "ns"),
        "lpp.cells": (_ratio(n("lpp.last_passage_batch")["work"], ops), "count"),
        "lpp.sweep.ns_per_cell": (1e9 * _ratio(batch["self"], batch["work"]), "ns"),
        "lpp.batch.self_us_per_call": (1e6 * _ratio(batch["self"], batch["calls"]), "us"),
        "scaling.rescale_sample.ns_per_sample": (1e9 * _ratio(rescale["self"], rescale["work"]), "ns"),
        "tasep.events": (_ratio(n("tasep.evolve")["work"], inst), "count"),
        "tasep.evolve.us_per_event": (1e6 * _ratio(evolve["self"], evolve["work"]), "us"),
        "tasep.clocks.us_per_instance": (1e6 * _ratio(omega["duration"], bridge["calls"]), "us"),
        "tasep.omega_row.calls_per_instance": (_ratio(n("tasep.omega_row")["calls"], inst), "count"),
        "tasep.exit_lookup.us_per_instance": (1e6 * _ratio(exit_["duration"], bridge["calls"]), "us"),
        "tasep.bridge_self.ms_per_instance": (1e3 * _ratio(bridge["self"], bridge["calls"]), "ms"),
        "specfun.airy.evals": (_ratio(n("specfun.airy_ai")["work"], ops), "count"),
        "specfun.airy.ns_per_eval": (1e9 * _ratio(airy["duration"], airy["work"]), "ns"),
        "specfun.rules.calls": (_ratio(n("specfun.rules")["calls"], ops), "count"),
        "limitlaw.nystrom.builds_per_point": (_ratio(n("limitlaw.nystrom")["calls"], points), "count"),
        "limitlaw.nystrom.ms_per_build": (1e3 * _ratio(nys["self"], nys["calls"]), "ms"),
        "limitlaw.factorizations_per_point": (
            _ratio(n("limitlaw.det")["work"] + n("limitlaw.resolvent_inner")["calls"], points),
            "count",
        ),
        "limitlaw.det.ms_per_call": (1e3 * _ratio(det["self"], det["calls"]), "ms"),
        "limitlaw.resolvent.ms_per_call": (1e3 * _ratio(res["self"], res["calls"]), "ms"),
        "limitlaw.def11.ms_per_call": (1e3 * _ratio(d11["self"], d11["calls"]), "ms"),
        "limitlaw.airy_share": (_ratio(airy["duration"], cdf["duration"]), "ratio"),
        "limitlaw.airy_ms_per_point": (1e3 * _ratio(airy["duration"], cdf["calls"]), "ms"),
        "limitlaw.cdf_ms_per_point": (1e3 * _ratio(cdf["duration"], cdf["calls"]), "ms"),
    }
    for name, evals in zip(AIRY_BRANCHES, tracer.airy_branch_evals):
        m[f"specfun.airy.evals.{name}"] = (_ratio(evals, ops), "count")

    # where the traced wall time went: every span's self time is charged to
    # its layer, the benchmark's own code (bench) or tracer bookkeeping
    share = dict.fromkeys(LAYERS + ("bench", "trace"), 0.0)
    for name, v in tot.items():
        share[name.split(".")[0]] += v["self"]
    for layer, s in share.items():
        m[f"self_share.{layer}"] = (_ratio(s, wall), "ratio")
    m["trace.accounted_share"] = (_ratio(sum(share.values()), wall), "ratio")
    m["trace.ops"] = (float(ops), "count")
    m["trace.ops_per_s_untraced"] = (_ratio(len(plain), sum(plain)), "1/s")
    m["trace.ops_per_s_traced"] = (_ratio(ops, sum(traced)), "1/s")
    m["trace.overhead"] = (_ratio(sum(traced), sum(plain)), "ratio")
    return m


def _median_ns(fn, n_items, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e9 * float(np.median(times)) / n_items


def microbenchmarks(seed):
    """airy_ai on branch-pure arrays shaped like a Nystrom Airy table (64
    nodes x 384 lambda nodes), and uniform_oc on a BatchWeights row of the
    mc-critical workload (512 samples x 165 cells)."""
    from stasep import rng, specfun

    r = np.random.default_rng([seed, 5])
    m = {}
    for name, (lo, hi) in AIRY_RANGES.items():
        x = r.uniform(lo, hi, size=(64, 384))
        m[f"specfun.airy.{name}.ns_per_eval"] = (
            _median_ns(lambda: specfun.airy_ai(x), x.size, 7),
            "ns",
        )
    keys = r.integers(0, 2**63, size=(512, 1), dtype=np.uint64)
    cols = np.arange(165)[None, :]
    m["rng.uniform_oc.micro_ns_per_cell"] = (
        _median_ns(lambda: rng.uniform_oc(keys, rng.TAG_FIELD, cols, 17), keys.size * cols.size, 15),
        "ns",
    )
    return m
