import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stasep import cli, experiments
from stasep.cli import config_hash, load_config, main


def run_cli(args):
    return main(list(args))


def test_limit_cdf_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_min": -2.0, "s_max": 2.0, "s_step": 0.5, "quad_n": 32}))
    assert run_cli(["limit-cdf", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "cdf.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("config-hash" in l for l in header)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "s_1,F,det,g"
    fvals = [float(l.split(",")[1]) for l in body[1:]]
    assert len(fvals) == 9
    assert all(b >= a - 1e-9 for a, b in zip(fvals, fvals[1:]))  # monotone column


def test_limit_cdf_refuses_nearly_equal_taus(tmp_path):
    # Gaussian term of width sqrt(2e-4) = 0.014: more nodes than N_CAP
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"taus": [-0.0001, 0.0001], "s_min": 0, "s_max": 0}))
    assert run_cli(["limit-cdf", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "cdf.csv").exists()


def test_simulate_lpp_reproducible(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 250.0, "n_samples": 50, "master_seed": 5}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate-lpp", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["simulate-lpp", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()


def test_simulate_tasep_height_consistency(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_end": 20.0, "obs_lo": -30, "obs_hi": 30}))
    assert run_cli(["simulate-tasep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    body = [
        l for l in (tmp_path / "tasep.csv").read_text().splitlines() if not l.startswith("#")
    ][1:]
    rows = [tuple(int(v) for v in l.split(",")) for l in body]
    heights = [r[2] for r in rows]
    etas = [r[1] for r in rows]
    for k in range(1, len(rows)):
        assert heights[k] - heights[k - 1] == 1 - 2 * etas[k]


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run_cli(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "report.json").exists()  # no partial output
    # no subcommand has a thread count to set: MC spreads over the CPUs itself
    cfg.write_text(json.dumps({"threads": 2}))
    assert run_cli(["simulate-lpp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "samples.csv").exists()
    for subcommand in ("compare", "validate"):
        assert run_cli([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "report.json").exists()


def test_default_config_hashes_pinned():
    # pinned: outputs written while `threads` was a key (left out of the
    # hash) keep their provenance hashes
    assert config_hash(load_config("compare", None)) == "056374ec5da3debd"
    assert config_hash(load_config("validate", None)) == "2bf2aa711ce0d68e"
    assert config_hash({**load_config("compare", None), "master_seed": 2}) != "056374ec5da3debd"


def test_bad_type_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"taus": "zero"}))
    assert run_cli(["limit-cdf", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "subcommand, user",
    [
        ("limit-cdf", {"s_step": 0}),
        ("compare", {"s_step": 0}),
        ("limit-cdf", {"taus": ["a"]}),
        ("limit-cdf", {"taus": [None]}),
        ("simulate-tasep", {"obs_lo": 5, "obs_hi": -5}),
        ("limit-cdf", {"s_step": -0.5}),
        ("limit-cdf", {"s_max": -5}),
        ("simulate-lpp", {"n_samples": True}),
        ("limit-cdf", [0.0]),
        ("simulate-lpp", {"n_samples": 0}),
        ("simulate-lpp", {"n_samples": -3}),
        ("compare", {"n_samples": 0}),
        # FrameError: the scaled point leaves the frame
        ("simulate-lpp", {"taus": [1e6]}),
        # DomainError: the Airy tables for tau = 8 pass Ai's supported range
        ("limit-cdf", {"taus": [0, 8], "s_min": 0, "s_max": 0}),
        # json reads NaN and Infinity; no setting may be non-finite
        ("simulate-lpp", {"T": float("inf")}),
        ("simulate-lpp", {"taus": [float("nan")]}),
        ("limit-cdf", {"s_step": float("inf")}),
        ("limit-cdf", {"s_max": float("inf")}),
        ("limit-cdf", {"s_min": float("-inf")}),
        ("simulate-tasep", {"t_end": float("nan")}),
        ("simulate-tasep", {"t_end": float("inf")}),
        ("compare", {"threshold": float("nan")}),
        # seeds are 64-bit unsigned for every subcommand
        ("simulate-lpp", {"master_seed": -1}),
        ("simulate-lpp", {"master_seed": 2**64}),
        ("simulate-tasep", {"master_seed": -1}),
        ("compare", {"master_seed": 2**64}),
        ("validate", {"master_seed": -1}),
        # s-grids past S_GRID_MAX points (1e-300 overflowed np.arange)
        ("limit-cdf", {"s_step": 1e-300}),
        ("compare", {"s_step": 1e-300}),
        ("limit-cdf", {"s_step": 1e-7}),
        ("limit-cdf", {"s_step": 0.0008}),
    ],
)
def test_bad_value_rejected(tmp_path, capsys, subcommand, user):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(user))
    out = tmp_path / "out"
    assert run_cli([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()  # no partial output


def test_s_grid_cap(tmp_path):
    # 0.0008001 on [-4, 4] gives S_GRID_MAX points and is accepted; 0.0008
    # gives one more and is refused (test_bad_value_rejected)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_step": 0.0008001}))
    assert cli._s_grid(load_config("limit-cdf", cfg)).size == cli.S_GRID_MAX


def test_malformed_json_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run_cli(["limit-cdf", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    # numbers past the float range, which json reads as inf or as an int
    # that no float holds
    for text in ('{"s_max": 1e400}', '{"s_max": 1%s}' % ("0" * 400)):
        cfg.write_text(text)
        assert run_cli(["limit-cdf", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "cdf.csv").exists()


def test_compare_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "T": 256.0,
                "n_samples": 10000,
                "master_seed": 9,
                "threshold": 0.08,
                "s_min": -1.0,
                "s_max": 1.0,
                "s_step": 1.0,
            }
        )
    )
    rc = run_cli(["compare", "--config", str(cfg), "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["all_passed"] == (rc == 0)
    assert payload["reports"][0]["name"] == "mc-vs-limit"
    assert rc == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stasep.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate-lpp" in proc.stdout


@pytest.mark.parametrize("module", ["stasep", "stasep.cli"])
def test_import_leaves_scipy_stats_out(module):
    # scipy.stats is imported inside the two checks that use it, and the
    # limit law needs no scipy at all; a fresh interpreter shows what
    # importing the package itself loads
    src = str(Path(cli.__file__).resolve().parent.parent)
    heavy = ("scipy.stats", "scipy.linalg", "scipy.special")
    code = f"import sys, {module}; print(any(m in sys.modules for m in {heavy}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_the_process_pool_out():
    # multiprocessing and concurrent.futures are imported where a large Monte
    # Carlo sweep starts its pool, so importing the CLI loads neither
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        "import sys, stasep.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


@pytest.mark.parametrize(
    "run",
    [
        "from stasep.limitlaw import MultiPointSpec, limit_cdf\n"
        "for taus in ((0.0,), (-1.0, 1.0), (-2.0, 0.0, 1.5)):\n"
        "    limit_cdf(MultiPointSpec(taus, (0.0,) * len(taus)))\n",
        "from stasep.cli import main\n"
        "assert main(['limit-cdf', '--out', sys.argv[1]]) == 0\n",
    ],
    ids=["limit_cdf-m123", "cli-limit-cdf"],
)
def test_limit_law_loads_no_scipy(run, tmp_path):
    # the limit law runs on numpy alone: after limit_cdf at m = 1, 2, 3, or a
    # limit-cdf CLI run with its defaults, a fresh interpreter holds no scipy
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + run + _SCIPY_MODULES, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_off_half(tmp_path, capsys):
    # the quick battery at rho = 0.3, every check placed from rho; the
    # mc-vs-limit slot compares Monte Carlo with the limit law F_0 at rho = 0.3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": 0.3}))
    assert run_cli(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["reports"]) == 8
    assert all(r["passed"] for r in payload["reports"])
    [kpz] = [r for r in payload["reports"] if r["name"] == "mc-vs-limit"]
    assert kpz["config"]["rho"] == 0.3 and kpz["config"]["taus"] == [0.0]
    assert kpz["statistic"] <= 0.05
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(l.startswith("PASS ") for l in lines)


def test_validate_kpz_slot_fails_on_swapped_border_means(monkeypatch):
    # mutation: the model at 1 - rho swaps the two border means, so the
    # validate slot comparing MC with F_0 must fail (sup gap near 1).  The
    # other seven checks are replaced by placeholders so that only this slot
    # runs, with the battery's own arguments.
    for name in (
        "pathwise_bridge_validate", "kernel_dual_validate",
        "burke_increments_validate", "slow_decorrelation_validate",
        "slow_decorrelation_negative_control", "gaussian_offchar_validate",
    ):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: None)
    real = experiments.ModelParams.two_sided
    monkeypatch.setattr(experiments.ModelParams, "two_sided", lambda rho: real(1.0 - rho))
    reports = cli._validate_battery(dict(cli._DEFAULTS["validate"], rho=0.3))
    [rep] = [r for r in reports if r is not None and r.name == "mc-vs-limit"]
    assert rep.config["rho"] == 0.3
    assert not rep.passed and rep.statistic > 0.05
