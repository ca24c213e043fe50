import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    # simulate-lpp has no thread count to set
    cfg.write_text(json.dumps({"threads": 2}))
    assert run_cli(["simulate-lpp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "samples.csv").exists()


def test_threads_left_out_of_config_hash(monkeypatch):
    # threads spreads the same samples over processes: THREADS=1 and
    # THREADS=2 name the same results, so they share one hash
    hashes = {}
    for n in ("1", "2"):
        monkeypatch.setenv("THREADS", n)
        cfg = load_config("compare", None)
        assert cfg["threads"] == int(n)
        hashes[n] = config_hash(cfg)
    assert hashes["1"] == hashes["2"]
    assert config_hash({**cfg, "master_seed": 2}) != hashes["1"]


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
    ],
)
def test_bad_value_rejected(tmp_path, capsys, subcommand, user):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(user))
    out = tmp_path / "out"
    assert run_cli([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()  # no partial output


def test_malformed_json_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run_cli(["limit-cdf", "--config", str(cfg), "--out", str(tmp_path)]) == 2


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


def test_validate_off_half(tmp_path, capsys):
    # the quick battery at rho = 0.3, every check placed from rho; the
    # critical control among them only checks that its variance coefficient
    # vanishes (see test_gaussian_critical_control_small)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": 0.3}))
    assert run_cli(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["reports"]) == 11
    assert all(r["passed"] for r in payload["reports"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11 and all(l.startswith("PASS ") for l in lines)
