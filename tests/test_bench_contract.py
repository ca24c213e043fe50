"""The benchmark harness (perfbench/) traces stasep by rebinding names that
the package must keep: its tracer's install fails when one of them is gone,
and uninstall must put every original back."""

from pathlib import Path

from stasep import limitlaw, lpp, tasep, weights

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    traced = [
        (lpp, "last_passage_batch"),
        (weights.BatchWeights, "row"),
        (tasep, "evolve"),
        (tasep.WaitingTimes, "omega_row"),
        (limitlaw, "limit_cdf"),
        (limitlaw.NystromSystem, "det"),
    ]
    before = [owner.__dict__[attr] for owner, attr in traced]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not b for (owner, attr), b in zip(traced, before))
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is b for (owner, attr), b in zip(traced, before))


def test_traced_limit_cdf_spans(monkeypatch):
    # one CDF point at tau = (0,), s = 0 builds one system and runs one
    # Definition-1.1 stage, with Ai in two calls: the block's table and
    # def11_terms' batch
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        t.active = True
        limitlaw.limit_cdf(limitlaw.MultiPointSpec((0.0,), (0.0,)))
    finally:
        t.active = False
        t.uninstall()
    calls = {name: v["calls"] for name, v in t.totals().items()}
    assert calls["limitlaw.def11_terms"] == 1
    assert calls["limitlaw.nystrom"] == 1
    assert calls["specfun.airy_ai"] == 2


def test_each_workload_runs_one_cycle(monkeypatch):
    # every benchmark workload, tiny: one full cycle of ops, each checked,
    # then the whole-run checks; a name a workload uses that the package
    # lost would fail here, not only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        wl = cls(5, tiny=True)
        for k in range(wl.cycle):
            inp = wl.op_input(k)
            assert wl.check(k, inp, wl.run(inp)), (name, k)
        assert wl.finish()[1] == [], name
