"""Determinant, resolvent functional, and CDF-level structure.

Frozen values come from the refined (2n, Lambda+4) configuration, itself
stable to ~1e-10 under further refinement; the stationary determinant value
doubles as a cross-check against the classical GUE Tracy-Widom CDF at 0."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stasep import cli, limitlaw
from stasep.errors import AccuracyError, InvertibilityError, ParameterError
from stasep.limitlaw import (
    MultiPointSpec,
    NystromSystem,
    QuadratureConfig,
    convergence_gap,
    def11_terms,
    limit_cdf,
)

Q = QuadratureConfig()

DET_GUE_0 = 0.9693728283552666     # det at tau=0, s=0 == F_GUE(0)
G_STAT_0 = 0.4384554211084577
F_STAT_0 = 0.5234607316676465
DET_M2 = 0.995043429941833         # taus=(-1,1), s=(0,0)
F_M2 = 0.2903659316588897
F_M2_HALF = 0.32811945333337716    # taus=(-0.5,0.5)

# F(tau, (s,)*m) at s = -4, 0, 4, as pinned for the benchmark
# (perfbench/pinned_cdf.json); a drift beyond 1e-9 fails the benchmark too
PINNED_F = {
    (0.0,): (2.196194897046793e-06, 0.5234607316649912, 0.9991198204512367),
    (-1.0, 1.0): (1.788604963119515e-07, 0.2903659316838697, 0.9838065175586201),
}


def _det(taus, esses):
    return NystromSystem(MultiPointSpec(taus, esses), Q).det


def test_det_empty_projection():
    assert _det((0.0,), (10.0,)) == pytest.approx(1.0, abs=1e-6)
    assert _det((-0.5, 0.5), (10.0, 10.0)) == pytest.approx(1.0, abs=1e-6)


def test_det_stationary_value():
    assert _det((0.0,), (0.0,)) == pytest.approx(DET_GUE_0, abs=1e-8)


def test_det_shift_covariance():
    for tau in (0.7, 1.0, 2.0):
        for s in (-1.0, 0.5):
            assert abs(_det((tau,), (s,)) - _det((0.0,), (s + tau**2,))) <= 1e-8


def test_det_m2_value_and_goe_bound():
    det = _det((-1.0, 1.0), (0.0, 0.0))
    assert det == pytest.approx(DET_M2, abs=1e-8)
    # bounded below by the GOE Tracy-Widom CDF at min(s) = 0 (~0.8319)
    assert 0.83 < det < 1.0
    det_low = _det((-1.0, 1.0), (-3.0, -3.0))
    assert 0.0 < det_low < det


def test_g_large_s_limit():
    # m=1: the pairing vanishes and g -> s1
    g1 = limit_cdf(MultiPointSpec((0.3,), (10.0,)), Q).g_value
    assert g1 == pytest.approx(10.0, abs=1e-3)
    # m>=2: the Gaussian-tail part of Phi keeps an O(1) mass under the
    # moving projection; on the diagonal s1 = s2 = s the limit is
    # s - sqrt(delta_tau / pi) (the Airy parts still vanish)
    g2 = limit_cdf(MultiPointSpec((-0.5, 0.5), (10.0, 10.0)), Q).g_value
    assert g2 == pytest.approx(10.0 - np.sqrt(1.0 / np.pi), abs=1e-3)


def test_g_stationary_value():
    assert limit_cdf(MultiPointSpec((0.0,), (0.0,)), Q).g_value == pytest.approx(G_STAT_0, abs=1e-7)


def test_g_neumann_consistency():
    # when ||D|| is small the identity + first-order term matches the full
    # resolvent within quadrature error
    spec = MultiPointSpec((0.0,), (4.0,))
    sysm = NystromSystem(spec, Q)
    terms = def11_terms(sysm)
    sq = np.sqrt(np.concatenate(sysm.weights))
    f = sq * np.concatenate(terms.phi)
    g = sq * np.concatenate(terms.psi)
    first_order = float(g @ f) + float(g @ (sysm.matrix @ f))
    full = sysm.resolvent_inner(terms.phi, terms.psi)
    assert first_order == pytest.approx(full, abs=1e-6)


def test_limit_cdf_stationary_point():
    res = limit_cdf(MultiPointSpec((0.0,), (0.0,)), Q)
    assert res.f_value == pytest.approx(F_STAT_0, abs=1e-6)
    assert res.det_value == pytest.approx(DET_GUE_0, abs=1e-8)
    assert res.g_value == pytest.approx(G_STAT_0, abs=1e-7)


def test_limit_cdf_tails():
    assert limit_cdf(MultiPointSpec((0.0,), (-8.0,)), Q).f_value < 0.02
    assert limit_cdf(MultiPointSpec((0.0,), (8.0,)), Q).f_value > 0.999


def test_limit_cdf_monotone_in_s():
    vals = [limit_cdf(MultiPointSpec((0.0,), (s,)), Q).f_value for s in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))


def test_limit_cdf_symmetry_in_tau():
    # F(tau, s) = F(-tau, s), over the s range where the truncations bite;
    # the bound was fixed before measuring (the gaps read 8.5e-14, 9.5e-13
    # and 5.9e-11 at |tau| = 1, 2 and 2.5)
    for tau in (0.5, 1.0, 2.0, 2.5):
        for s in range(-10, 9):
            fp = limit_cdf(MultiPointSpec((tau,), (float(s),)), Q).f_value
            fm = limit_cdf(MultiPointSpec((-tau,), (float(s),)), Q).f_value
            assert abs(fp - fm) <= 1e-10, (tau, s, fp, fm)


def test_limit_cdf_m2_and_marginalization():
    res = limit_cdf(MultiPointSpec((-1.0, 1.0), (0.0, 0.0)), Q)
    assert res.f_value == pytest.approx(F_M2, abs=1e-6)
    assert limit_cdf(MultiPointSpec((-0.5, 0.5), (0.0, 0.0)), Q).f_value == pytest.approx(
        F_M2_HALF, abs=1e-6
    )
    # sending s2 -> +8 reproduces the one-point value at (tau1, s1)
    f2 = limit_cdf(MultiPointSpec((-1.0, 1.0), (-0.5, 8.0)), Q).f_value
    f1 = limit_cdf(MultiPointSpec((-1.0,), (-0.5,)), Q).f_value
    assert abs(f2 - f1) <= 1e-4


def test_limit_cdf_m2_monotone_each_coordinate():
    base = (-0.5, 0.5)
    for k in (0, 1):
        vals = []
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
            esses = [0.0, 0.0]
            esses[k] = s
            vals.append(limit_cdf(MultiPointSpec(base, tuple(esses)), Q).f_value)
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))


def test_m1_joint_prob_bounded_by_marginals():
    # joint CDF never exceeds either marginal
    f2 = limit_cdf(MultiPointSpec((-1.0, 1.0), (0.5, -0.5)), Q).f_value
    fa = limit_cdf(MultiPointSpec((-1.0,), (0.5,)), Q).f_value
    fb = limit_cdf(MultiPointSpec((1.0,), (-0.5,)), Q).f_value
    assert f2 <= min(fa, fb) + 1e-6


def test_nystrom_det_positive_and_fault_injection():
    # det raises InvertibilityError on a non-positive sign
    assert NystromSystem(MultiPointSpec((-1.0, 1.0), (-3.0, -3.0)), Q).det > 0.0
    assert NystromSystem(MultiPointSpec((0.0,), (5.0,)), Q).det == pytest.approx(1.0, abs=1e-6)
    # corrupt the kernel so one eigenvalue of D crosses 1: det flips sign
    sysm = NystromSystem(MultiPointSpec((0.0,), (-3.0,)), Q)
    eigs = np.linalg.eigvals(sysm.matrix).real
    scale = 1.5 / eigs.max()
    sign, _ = np.linalg.slogdet(np.eye(sysm.matrix.shape[0]) - scale * sysm.matrix)
    assert sign <= 0
    sysm.matrix *= scale
    with pytest.raises(InvertibilityError):
        _ = sysm.det


def test_alarm_band(monkeypatch):
    monkeypatch.setattr(limitlaw, "ALARM_BAND", -0.9)
    with pytest.raises(AccuracyError):
        limit_cdf(MultiPointSpec((0.0,), (0.0,)), Q)


def test_convergence_under_refinement():
    for spec in (
        MultiPointSpec((0.0,), (0.0,)),
        MultiPointSpec((2.0,), (-2.0,)),
        MultiPointSpec((-1.0, 1.0), (0.0, 0.0)),
    ):
        gaps = convergence_gap(spec, Q)
        assert gaps["f_gap"] <= 1e-6
        assert gaps["det_gap"] <= 1e-8
        assert gaps["g_gap"] <= 1e-6


def test_convergence_gap_refines_from_the_nodes_used(monkeypatch):
    # at delta tau = 0.05 the Gaussian bound raises n above the floor, and
    # the refined value doubles that n, not the floor
    used = []
    init = NystromSystem.__init__

    def recording_init(self, spec, quad):
        init(self, spec, quad)
        used.append(self.n)

    monkeypatch.setattr(NystromSystem, "__init__", recording_init)
    gaps = convergence_gap(MultiPointSpec((-0.025, 0.025), (0.0, 0.0)), Q)
    assert used[0] > Q.n and used == [used[0], 2 * used[0]], used
    assert gaps["f_gap"] <= 1e-12 and gaps["det_gap"] <= 1e-12


def _accuracy_specs():
    """m = 1 at six tau's and six tau sets with m >= 2, each on s = -8, ..., 6
    with equal thresholds and, for m >= 2, two staggered threshold sets."""
    tau_sets = [(t,) for t in (-2.5, -2.0, -1.0, 0.0, 1.0, 2.0)] + [
        (-1.0, 1.0), (-0.5, 0.7), (-2.0, 2.0), (-2.5, 2.5), (-0.025, 0.025), (-2.0, 0.0, 1.5),
    ]
    for taus in tau_sets:
        m = len(taus)
        for s in range(-8, 7):
            yield MultiPointSpec(taus, (float(s),) * m)
        if m > 1:
            yield MultiPointSpec(taus, tuple(-1.0 + 0.7 * k for k in range(m)))
            yield MultiPointSpec(taus, tuple(1.5 - 1.2 * k for k in range(m)))


def test_limit_cdf_matches_refined_reference(monkeypatch):
    # F at the default quadrature against (2 n_used, Lambda + 4) with 24-node
    # panels; the bound was fixed before measuring (the largest gap read
    # 9.3e-13, at tau = 2, where the reference's own rounding shows)
    specs = list(_accuracy_specs())
    results = [limit_cdf(spec, Q) for spec in specs]
    raised = [res.diagnostics["n"] for res in results if res.diagnostics["n"] > Q.n]
    assert raised and all(n % 8 == 0 for n in raised)
    monkeypatch.setattr(limitlaw, "PANEL_NODES", 24)
    for spec, res in zip(specs, results):
        d = res.diagnostics
        assert d["nodes"] == spec.m * d["n"]
        ref = limit_cdf(spec, QuadratureConfig(d["n"], Q.big_lambda).refined())
        assert abs(res.f_value - ref.f_value) <= 2e-12, (spec, d["n"], res.f_value, ref.f_value)


def test_nearly_equal_taus_refused_or_resolved():
    # the Gaussian term of the closest pair has width sqrt(2 delta tau); past
    # N_CAP nodes it cannot be resolved, and the value is refused
    for delta in (1e-4, 1e-3):
        with pytest.raises(AccuracyError):
            limit_cdf(MultiPointSpec((-delta / 2, delta / 2), (0.0, 0.0)), Q)
    # at delta tau = 0.01 it is resolved: the joint CDF stays below each
    # marginal (at n = 64 and delta tau = 1e-4 it read 0.81 against 0.52)
    for s in (-3.0, -1.5, 0.0, 1.5, 3.0):
        joint = limit_cdf(MultiPointSpec((-0.005, 0.005), (s, s)), Q)
        assert joint.diagnostics["n"] > Q.n
        for tau in (-0.005, 0.005):
            assert joint.f_value <= limit_cdf(MultiPointSpec((tau,), (s,)), Q).f_value, s


# Records whose every value must come out bit for bit the same in any process:
# m >= 2 at (128, 16), where dgecon's last digits used to drift, and two
# specs whose node count the Gaussian bound raises to 104 and 240
_RECORDS = """
from stasep.limitlaw import MultiPointSpec, QuadratureConfig, limit_cdf
fine = QuadratureConfig(128, 16.0)
cases = [(taus, s, fine) for taus in ((-1.0, 1.0), (-0.5, 0.7), (-2.0, 0.0, 1.5))
         for s in (-3.0, -2.0, -1.5, -0.5, 0.0, 1.0, 1.5, 2.5)]
cases += [((-0.025, 0.025), 0.0, QuadratureConfig()), ((-0.005, 0.005), -1.0, QuadratureConfig())]
for taus, s, quad in cases:
    r = limit_cdf(MultiPointSpec(taus, (s,) * len(taus)), quad)
    d = r.diagnostics
    print(taus, s, d["n"], r.f_value.hex(), r.det_value.hex(), r.g_value.hex(), d["cond1_est"].hex())
"""


def test_records_reproducible_across_processes():
    src = str(Path(limitlaw.__file__).resolve().parent.parent)
    runs = [
        subprocess.run(
            [sys.executable, "-c", _RECORDS], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        for _ in range(2)
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 26 and all(int(line.split()[-5]) > 100 for line in lines[-2:])
    assert runs[0].stdout == runs[1].stdout


def test_limit_cdf_pinned_values():
    for taus, values in PINNED_F.items():
        for s, ref in zip((-4.0, 0.0, 4.0), values):
            f = limit_cdf(MultiPointSpec(taus, (s,) * len(taus)), Q).f_value
            assert abs(f - ref) <= 1e-9, (taus, s, f, ref)


def test_limit_cdf_builds_one_system(monkeypatch):
    built = []
    init = NystromSystem.__init__

    def counting_init(self, spec, quad):
        built.append(spec.esses)
        init(self, spec, quad)

    monkeypatch.setattr(NystromSystem, "__init__", counting_init)
    for taus in ((0.0,), (-1.0, 1.0), (-1.0, 0.0, 1.0)):
        built.clear()
        spec = MultiPointSpec(taus, (0.5,) * len(taus))
        res = limit_cdf(spec, Q)
        assert built == [(0.5,) * len(taus)]
        d = res.diagnostics
        assert d["logdet"] == pytest.approx(np.log(res.det_value), abs=1e-13)
        assert d["nodes"] == len(taus) * Q.n and len(d["lengths"]) == len(taus)
        # the lambda grid is cut at the first certified rung of 4, 8, ...
        assert d["lam_nodes"] > 0 and _lambda_cut_certified(d["lam_len"], spec)
        assert d["lam_len"] == 4.0 or not _lambda_cut_certified(d["lam_len"] - 4.0, spec)


def _lambda_cut_certified(length, spec):
    """The two conditions of the lambda grid's cut: its two-factor Airy
    integrand decays past `length` at least like e^{-(l - length)}, and its
    envelope there is below e^-TAIL_EXPONENT."""
    shift = min(spec.esses) + min(t * t for t in spec.taus)
    rate = spec.taus[-1] - spec.taus[0]
    decays = 2.0 * np.sqrt(max(length + shift, 0.0)) >= rate + 1.0
    small = -2.0 * limitlaw._airy_log_envelope(length + shift) - rate * length >= limitlaw.TAIL_EXPONENT
    return decays and small


def _counting_airy(monkeypatch):
    """Route limitlaw's airy_ai through a recorder of each call's size."""
    calls = []
    airy_ai = limitlaw.airy_ai

    def counting_airy(x):
        calls.append(np.size(x))
        return airy_ai(x)

    monkeypatch.setattr(limitlaw, "airy_ai", counting_airy)
    return calls


def test_limit_cdf_calls_airy_once_per_point(monkeypatch):
    # one Airy call per CDF point at every m: the tables of the distinct
    # (tau_i^2, s_i, length_i) blocks and every Definition-1.1 argument (B,
    # R's rule, which B(0) shares, the Psi/Phi tail plans and the shift
    # column) are evaluated together
    calls = _counting_airy(monkeypatch)
    cases = [
        ((0.0,), (0.5,)),
        ((-1.0, 1.0), (-1.0, -1.0)),
        ((-1.0, 1.0), (-1.0, 0.0)),
        ((-1.0, 0.0, 1.0), (-1.0, -1.0, -1.0)),
        ((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)),
    ]
    for taus, esses in cases:
        calls.clear()
        limit_cdf(MultiPointSpec(taus, esses), Q)
        assert len(calls) == 1, (taus, esses, calls)


def test_airy_evaluations_per_cdf_point(monkeypatch):
    # a timing-free guard on the limit law's dominant cost: the mean number
    # of Airy arguments per point on the CLI's default grid, for tau = (0,)
    # and for tau = (-1, 1) at s = (s, s); both counts are deterministic
    calls = _counting_airy(monkeypatch)
    grid = [-4.0 + 0.5 * k for k in range(17)]
    for taus, bound in (((0.0,), 4372), ((-1.0, 1.0), 6877)):
        calls.clear()
        for s in grid:
            limit_cdf(MultiPointSpec(taus, (s,) * len(taus)), Q)
        assert sum(calls) / len(grid) <= bound, (taus, sum(calls) / len(grid))


def test_cond1_estimate_brackets_exact_condition():
    # cond1_est is the exact 1-norm condition number, rounded down to 3
    # significant digits
    for taus in ((0.0,), (-1.0, 1.0)):
        spec = MultiPointSpec(taus, (0.0,) * len(taus))
        res = limit_cdf(spec, Q)
        sysm = NystromSystem(spec, Q)
        exact = np.linalg.cond(np.eye(sysm.matrix.shape[0]) - sysm.matrix, 1)
        assert exact * (1.0 - 1e-2) <= res.diagnostics["cond1_est"] <= exact, taus


def _richardson_cdf(spec, h=2e-3):
    """F as the Richardson-extrapolated central difference of g * det along
    (1, ..., 1), from systems rebuilt at s +- h and s +- h/2."""
    products = []
    for shift in (h, -h, 0.5 * h, -0.5 * h):
        res = limit_cdf(MultiPointSpec(spec.taus, tuple(np.array(spec.esses) + shift)), Q)
        products.append(res.g_value * res.det_value)
    d_h = (products[0] - products[1]) / (2 * h)
    d_h2 = (products[2] - products[3]) / h
    return (4.0 * d_h2 - d_h) / 3.0


def test_limit_cdf_matches_richardson_difference():
    for taus in ((0.0,), (-1.0, 1.0), (-0.7, 0.2, 1.1)):
        for s in (-2.0, 0.0, 1.5):
            esses = tuple(s + 0.3 * k for k in range(len(taus)))
            spec = MultiPointSpec(taus, esses)
            f = limit_cdf(spec, Q).f_value
            ref = _richardson_cdf(spec)
            assert abs(f - ref) <= 1e-9, (taus, esses, f, ref)


def test_shared_lu_matches_numpy():
    # det against numpy's slogdet, and the resolvent against LU solves; at
    # tau = 0.5, s = -10 (cond1 2e11) a bare inverse product is 3e-6 off
    # the LU value, and the refined solves agree with it to rounding
    for spec in (
        MultiPointSpec((0.0,), (-1.0,)),
        MultiPointSpec((-1.0, 1.0), (-2.0, 0.5)),
        MultiPointSpec((0.5,), (-10.0,)),
    ):
        sysm = NystromSystem(spec, Q)
        a = np.eye(sysm.matrix.shape[0]) - sysm.matrix
        sign, logabs = np.linalg.slogdet(a)
        assert sysm.det == pytest.approx(sign * np.exp(logabs), rel=1e-13)
        terms = def11_terms(sysm)
        sq = np.sqrt(np.concatenate(sysm.weights))
        f = sq * np.concatenate(terms.phi)
        g = sq * np.concatenate(terms.psi)
        ref = float(g @ f) + float(g @ np.linalg.solve(a, sysm.matrix @ f))
        assert sysm.resolvent_inner(terms.phi, terms.psi) == pytest.approx(ref, rel=1e-13)


def test_solve_residual_within_rounding():
    # x = (1-D)^{-1} b from the shared inverse: on these well-conditioned
    # systems ||(1-D)x - b||_inf <= 10 n eps ||1-D||_inf ||x||_inf per column
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for taus in ((0.0,), (-1.0, 1.0)):
        sysm = NystromSystem(MultiPointSpec(taus, (0.0,) * len(taus)), Q)
        a = np.eye(sysm.matrix.shape[0]) - sysm.matrix
        n = a.shape[0]
        bound = 10 * n * eps * np.linalg.norm(a, np.inf)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            x = sysm.solve(rhs)
            resid = np.abs(a @ x - rhs).max(axis=0)
            assert np.all(resid <= bound * np.abs(x).max(axis=0)), (taus, resid)
        with pytest.raises(ValueError):
            sysm.solve(np.full(n, np.nan))
    # a non-finite kernel entry is refused before LAPACK sees it
    sysm = NystromSystem(MultiPointSpec((0.0,), (0.0,)), Q)
    sysm.matrix[0, 0] = np.inf
    with pytest.raises(ValueError):
        _ = sysm.det
    with pytest.raises(ValueError):
        sysm.solve(np.ones(sysm.matrix.shape[0]))


def test_singular_system_raises_invertibility_error(monkeypatch, tmp_path):
    # D with row 1 equal to e_1 makes row 1 of 1 - D exactly zero: det,
    # solve, limit_cdf and the CLI refuse it with InvertibilityError (exit 3),
    # never numpy's LinAlgError
    init = NystromSystem.__init__

    def singular_init(self, spec, quad):
        init(self, spec, quad)
        self.matrix[1] = 0.0
        self.matrix[1, 1] = 1.0

    monkeypatch.setattr(NystromSystem, "__init__", singular_init)
    spec = MultiPointSpec((-1.0, 1.0), (0.0, 0.0))
    sysm = NystromSystem(spec, Q)
    assert sysm.slogdet()[0] == 0.0
    with pytest.raises(InvertibilityError):
        _ = sysm.det
    with pytest.raises(InvertibilityError):
        sysm.solve(np.ones(sysm.matrix.shape[0]))
    with pytest.raises(InvertibilityError):
        limit_cdf(spec, Q)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"taus": [-1.0, 1.0], "s_min": 0, "s_max": 0}))
    assert cli.main(["limit-cdf", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "cdf.csv").exists()
    # a negative determinant is refused before any inverse is taken
    monkeypatch.setattr(NystromSystem, "__init__", init)
    sysm = NystromSystem(spec, Q)
    sysm.matrix[:] = 0.0
    sysm.matrix[0, 0] = 2.0
    with pytest.raises(InvertibilityError):
        sysm.solve(np.ones(sysm.matrix.shape[0]))
    # a singular inverse the sign check let through is refused the same way
    def singular_inv(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular_inv)
    with pytest.raises(InvertibilityError):
        limit_cdf(spec, Q)
