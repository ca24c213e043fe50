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
