"""Command-line front end: configuration, orchestration, and bit-stable CSV
and JSON emission.

Subcommands:
  simulate-lpp    raw passage-time samples at scaled points  -> samples.csv
  simulate-tasep  occupation/height profile of one trajectory -> tasep.csv
  limit-cdf       limit-law table over an s-grid              -> cdf.csv
  compare         Monte Carlo against the limit law           -> report.json
  validate        the full validation battery                 -> report.json

Exit codes: 0 all passed, 1 a validation failed, 2 configuration error,
3 numerical-accuracy failure.  Output files start with '#'-prefixed
provenance lines (config hash, seed, version); identical configs produce
byte-identical bodies.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    AccuracyError,
    DomainError,
    FrameError,
    InvertibilityError,
    ParameterError,
    RefusalError,
)
from .experiments import (
    _batched_g,
    burke_increments_validate,
    gaussian_offchar_validate,
    kernel_dual_validate,
    mc_vs_limit,
    offchar_gammas,
    pathwise_bridge_validate,
    shift_argument_validate,
    shift_coupling_validate,
    slow_decorrelation_negative_control,
    slow_decorrelation_validate,
)
from .limitlaw import MultiPointSpec, QuadratureConfig, limit_cdf
from .rng import SeedSpec
from .scaling import ScalingFrame, rescale_at_point, scale_dpp
from .tasep import WaitingTimes, evolve, init_stationary, stationary_window
from .weights import ModelParams

_DEFAULTS = {
    "simulate-lpp": {
        "rho": 0.5, "T": 500.0, "taus": [0.0], "n_samples": 2000,
        "master_seed": 1,
    },
    "simulate-tasep": {
        "rho": 0.5, "t_end": 50.0, "obs_lo": -100, "obs_hi": 100,
        "master_seed": 1,
    },
    "limit-cdf": {
        "taus": [0.0], "s_min": -4.0, "s_max": 4.0, "s_step": 0.5,
        "quad_n": 32, "quad_lambda": 12.0,
    },
    "compare": {
        "rho": 0.5, "T": 500.0, "taus": [0.0], "n_samples": 10000,
        "master_seed": 1, "threshold": 0.05,
        "s_min": -3.0, "s_max": 3.0, "s_step": 0.5,
    },
    "validate": {
        "rho": 0.5, "master_seed": 1, "quick": True,
    },
}


# the most points an s-grid may have (limit-cdf and compare evaluate one
# limit-law point, a few ms, at each)
S_GRID_MAX = 10_000


class ConfigError(ValueError):
    pass


def _finite(parse):
    """json's hook for one kind of number (NaN and Infinity are floats): a
    config number must be finite as a float, which an int may stand for."""
    def hook(text: str):
        if not math.isfinite(float(text)):
            raise ConfigError(f"config number {text} is not finite")
        return parse(text)
    return hook


def load_config(subcommand: str, path):
    """The defaults of `subcommand` overridden by the JSON object at `path`;
    each key takes the type of its default (an int may stand for a float)."""
    cfg = dict(_DEFAULTS[subcommand])
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh, parse_float=_finite(float), parse_int=_finite(int),
                                 parse_constant=_finite(float))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if type(user) is not dict:
            raise ConfigError("config must be a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} for {subcommand}")
            want = type(cfg[key])
            if want is float and type(value) is int:
                value = float(value)
            if type(value) is not want:
                raise ConfigError(f"config key {key!r} must be {want.__name__}")
            cfg[key] = value
        if not all(type(t) in (int, float) for t in cfg.get("taus", ())):
            raise ConfigError("config key 'taus' must list numbers")
        if "s_step" in cfg and not cfg["s_step"] > 0:
            raise ConfigError("config key 's_step' must be > 0")
        if "s_min" in cfg and not cfg["s_max"] >= cfg["s_min"]:
            raise ConfigError("config key 's_max' must be >= s_min")
        if "s_step" in cfg:
            # _s_grid's np.arange makes the ceiling of this many points
            points = (cfg["s_max"] + 0.5 * cfg["s_step"] - cfg["s_min"]) / cfg["s_step"]
            if points > S_GRID_MAX:
                raise ConfigError(f"the s-grid must have at most {S_GRID_MAX} points")
        if "obs_lo" in cfg and cfg["obs_lo"] > cfg["obs_hi"]:
            raise ConfigError("config key 'obs_lo' must be <= obs_hi")
        if "n_samples" in cfg and cfg["n_samples"] < 1:
            raise ConfigError("config key 'n_samples' must be >= 1")
        if "master_seed" in cfg and not 0 <= cfg["master_seed"] < 2**64:
            raise ConfigError("config key 'master_seed' must lie in [0, 2**64)")
    return cfg


def config_hash(cfg) -> str:
    """Hash of the settings, which determine the results."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def provenance_lines(subcommand, cfg):
    return [
        f"# stasep {__version__} {subcommand}",
        f"# config-hash: {config_hash(cfg)}",
        f"# config: {json.dumps(cfg, sort_keys=True)}",
    ]


def _fmt(x) -> str:
    return repr(float(x))


def write_csv(path: Path, subcommand, cfg, header, rows):
    lines = provenance_lines(subcommand, cfg)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate_lpp(cfg, outdir: Path) -> int:
    frame = ScalingFrame(T=cfg["T"], rho=cfg["rho"])
    taus = [float(t) for t in cfg["taus"]]
    pts = [scale_dpp(frame, tau, 0.0)[:2] for tau in taus]
    g = _batched_g(ModelParams.two_sided(cfg["rho"]), cfg["master_seed"], cfg["n_samples"], pts)
    rows = []
    for idx in range(cfg["n_samples"]):
        for k, (tau, (x, y)) in enumerate(zip(taus, pts)):
            rows.append(
                (idx, float(tau), float(g[idx, k]), float(rescale_at_point(frame, x, y, g[idx, k])))
            )
    write_csv(outdir / "samples.csv", "simulate-lpp", cfg,
              ["sample_index", "tau", "raw_G", "s_rescaled"], rows)
    return 0


def cmd_simulate_tasep(cfg, outdir: Path) -> int:
    seed = SeedSpec(cfg["master_seed"], 0)
    win = stationary_window(cfg["obs_lo"], cfg["obs_hi"], cfg["t_end"])
    state = init_stationary(cfg["rho"], win, seed)
    state, _ = evolve(state, WaitingTimes(seed), cfg["t_end"])
    occ = state.occupation(cfg["obs_lo"], cfg["obs_hi"])
    h = state.height(cfg["obs_lo"], cfg["obs_hi"])
    rows = [
        (j, int(occ[j - cfg["obs_lo"]]), int(h[j - cfg["obs_lo"]]))
        for j in range(cfg["obs_lo"], cfg["obs_hi"] + 1)
    ]
    cfg_out = dict(cfg)
    cfg_out["n_current"] = state.n_current
    write_csv(outdir / "tasep.csv", "simulate-tasep", cfg_out, ["site", "eta", "height"], rows)
    return 0


def _s_grid(cfg) -> np.ndarray:
    """s_min, s_min + s_step, ... up to s_max (included up to rounding)."""
    return np.arange(cfg["s_min"], cfg["s_max"] + 0.5 * cfg["s_step"], cfg["s_step"])


def cmd_limit_cdf(cfg, outdir: Path) -> int:
    quad = QuadratureConfig(n=cfg["quad_n"], big_lambda=cfg["quad_lambda"])
    taus = tuple(float(t) for t in cfg["taus"])
    m = len(taus)
    rows = []
    for s in _s_grid(cfg):
        res = limit_cdf(MultiPointSpec(taus, (float(s),) * m), quad)
        rows.append(tuple(float(s) for _ in range(m)) + (res.f_value, res.det_value, res.g_value))
    header = [f"s_{k+1}" for k in range(m)] + ["F", "det", "g"]
    write_csv(outdir / "cdf.csv", "limit-cdf", cfg, header, rows)
    return 0


def cmd_compare(cfg, outdir: Path) -> int:
    frame = ScalingFrame(T=cfg["T"], rho=cfg["rho"])
    taus = [float(t) for t in cfg["taus"]]
    svecs = [[float(s)] * len(taus) for s in _s_grid(cfg)]
    rep = mc_vs_limit(
        frame, taus, cfg["n_samples"], cfg["master_seed"], svecs, threshold=cfg["threshold"]
    )
    _write_report(outdir, "compare", cfg, [rep])
    return 0 if rep.passed else 1


def _write_report(outdir: Path, subcommand, cfg, reports):
    payload = {
        "tool": f"stasep {__version__}",
        "subcommand": subcommand,
        "config_hash": config_hash(cfg),
        "config": cfg,
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _validate_battery(cfg):
    """Yield the validation reports one check at a time."""
    rho = cfg["rho"]
    seed = cfg["master_seed"]
    quick = cfg["quick"]
    yield pathwise_bridge_validate(rho, 300 if quick else 10000, seed)
    yield kernel_dual_validate(seed)
    yield burke_increments_validate(rho, 3000 if quick else 10000, seed)
    yield shift_argument_validate(
        0.25, 0.25, [(2, 2)], np.arange(2.0, 11.0, 1.0), 10**5 if quick else 10**6, seed
    )
    frame = ScalingFrame(T=2000.0, rho=rho, nu=0.5)
    n_sd = 500 if quick else 2000
    yield slow_decorrelation_validate(frame, 0.25, 0.25, 0.1, 0.25, n_sd, seed)
    yield slow_decorrelation_negative_control(frame, 0.25, 0.25, 0.1, 0.10, n_sd, seed)
    n_gauss = 1500 if quick else 5000
    above, below = offchar_gammas(rho)
    yield gaussian_offchar_validate(rho, above, 2000, n_gauss, seed)
    yield gaussian_offchar_validate(rho, below, 2000, n_gauss, seed)
    # the paper's theorem at tau = 0: MC against the Baik-Rains law F_0 on
    # compare's s-grid, sup gap <= 0.05 (compare's sizes when quick, the
    # acceptance suite's headline sizes otherwise)
    yield mc_vs_limit(
        ScalingFrame(T=500.0 if quick else 1000.0, rho=rho), (0.0,),
        10**4 if quick else 2 * 10**4, seed,
        [[float(s)] for s in _s_grid(_DEFAULTS["compare"])],
    )
    yield shift_coupling_validate(0.25, 0.25, (3, 3), 200, seed)


def cmd_validate(cfg, outdir: Path) -> int:
    reports = []
    for rep in _validate_battery(cfg):
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name}: statistic={rep.statistic:.6g} "
              f"threshold={rep.threshold:g} ({rep.runtime_s:.1f}s)", flush=True)
        reports.append(rep)
    _write_report(outdir, "validate", cfg, reports)
    return 0 if all(r.passed for r in reports) else 1


_COMMANDS = {
    "simulate-lpp": cmd_simulate_lpp,
    "simulate-tasep": cmd_simulate_tasep,
    "limit-cdf": cmd_limit_cdf,
    "compare": cmd_compare,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stasep",
        description="stationary TASEP / bordered LPP workbench",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.subcommand, args.config)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # the output directory is made when the first file is written, so a
    # refused run leaves nothing behind
    try:
        return _COMMANDS[args.subcommand](cfg, Path(args.out))
    except (AccuracyError, InvertibilityError) as exc:
        print(f"numerical-accuracy failure: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, DomainError, FrameError, RefusalError) as exc:
        # every argument comes from the config, so an argument outside a
        # supported domain (a scaled point off the frame, an Airy argument
        # past its table) is a configuration error
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
