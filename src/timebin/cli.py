"""Command-line runner: timebin <experiment> --config file [--out dir].

Config files are flat JSON; --set key=value flags override file keys.
Exit codes: 0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments

DEFAULTS = {
    "quench": {
        "N_x": 8, "J": 1.0, "U": 10.0, "boundary": "periodic",
        "delta_t": 0.2, "total_time": 4.0,
    },
    "spectrum": {
        "N_x": 4, "N_y": 4, "J": 1.0, "U": 10.0, "phi_plaq": 0.25,
        "delta_t": 0.25, "sectors": [1, 2],
    },
    "steady_state": {
        "N_x": 4, "N_y": 4, "J": 1.0, "U": 10.0, "phi_plaq": 0.25,
        "delta_t": 0.25, "K_dt_list": [0.1], "alpha_ratio": 0.1,
        "omega_min": -2.85, "omega_max": -2.5, "omega_points": 15,
        "n_max": 2, "ancilla_cut": 3, "tol": 1e-6,
    },
    "incoherent": {
        "N_x": 4, "N_y": 4, "J": 1.0, "U": 10.0, "phi_plaq": 0.25,
        "delta_t": 0.25, "chi": 0.048, "p_ref": 0.01, "n_max": 3,
        "n_circulations": 5000, "record_every": 50,
        "inits": ["vacuum", "ground"],
    },
    "subtraction": {
        "pulses": ["square", "bump"], "k_list": [1, 2, 3],
        "gamma_grid": [100.0, 316.0, 1000.0, 3162.0, 4000.0, 10000.0],
        "grid_points": 4097,
    },
    "compile": {
        "geometry": "chain", "N_x": 8, "J": 1.0, "delta_t": 0.2,
        "variant": "even_simple", "l_x": 1,
    },
}

RUNNERS = {
    "quench": experiments.run_quench,
    "spectrum": experiments.run_spectrum,
    "steady_state": experiments.run_steady_state,
    "incoherent": experiments.run_incoherent,
    "subtraction": experiments.run_subtraction,
    "compile": experiments.run_compile,
}


class ConfigError(ValueError):
    pass


def load_config(experiment: str, path: str = None, overrides=None) -> dict:
    if experiment not in DEFAULTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; pick one of "
            f"{sorted(DEFAULTS)}"
        )
    cfg = dict(DEFAULTS[experiment])
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key, raw in overrides or []:
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    validate_config(experiment, cfg)
    return cfg


def validate_config(experiment: str, cfg: dict):
    numeric = [
        v for k, v in cfg.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    if any(not _finite(v) for v in numeric):
        raise ConfigError("all numeric parameters must be finite")
    if experiment == "steady_state":
        if cfg["omega_points"] < 1:
            raise ConfigError("omega_grid must be nonempty")
        if not cfg["K_dt_list"]:
            raise ConfigError("K_dt_list must be nonempty")
        if not isinstance(cfg["n_max"], int) or cfg["n_max"] < 2:
            raise ConfigError(
                "n_max must be an integer >= 2: the ground-space overlap "
                "needs sector 2"
            )
    if experiment == "subtraction" and not cfg["gamma_grid"]:
        raise ConfigError("gamma_grid must be nonempty")
    if experiment == "incoherent" and cfg["n_circulations"] < 1:
        raise ConfigError("n_circulations must be positive")


def _finite(v) -> bool:
    try:
        return abs(float(v)) < float("inf")
    except (TypeError, ValueError):
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="timebin",
        description="time-bin bosonic lattice simulation experiments",
    )
    parser.add_argument("experiment", help=f"one of {sorted(DEFAULTS)}")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="timebin_out",
                        help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel workers for scans")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)

    try:
        overrides = []
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
            overrides.append(tuple(item.split("=", 1)))
        cfg = load_config(args.experiment, args.config, overrides)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    experiments.write_manifest(args.out, args.experiment, cfg)
    runner = RUNNERS[args.experiment]
    if args.experiment == "steady_state":
        summary = runner(cfg, args.out, threads=max(1, args.threads))
        if summary["non_converged"]:
            print(
                f"error: {summary['non_converged']} scan points did not "
                "converge", file=sys.stderr,
            )
            return 2
    else:
        summary = runner(cfg, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
