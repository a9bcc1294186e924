"""Command-line runner: timebin <experiment> --config file [--out dir].

Config files are flat JSON; --set key=value flags override file keys.
Exit codes: 0 success, 1 validation error, 2 numerical non-convergence.
An exit 1 writes nothing; the others write the run's outputs and then
manifest.json into the output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import experiments
from .dynamics import (INITS, MAX_CHANNEL_STATES, ProtocolError,
                       check_ancilla_cut, check_refresh)
from .fock import sector_dimension
from .lattice import build_bose_hubbard, build_fqh
from .subtraction import refined_intervals

# largest Fock basis a lattice run may build: its dense complex step is
# then at most 4096^2 * 16 B = 256 MiB
MAX_BASIS_STATES = 4096

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
        "geometry": "chain", "N_x": 8, "N_y": 4, "J": 1.0, "phi_plaq": 0.25,
        "delta_t": 0.2, "variant": "even_simple", "l_x": 1, "l_y": None,
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
    # each value keeps the JSON kind of its default; a null default (l_y)
    # also takes a number, and a list's items keep the kind of its first
    for key, default in DEFAULTS[experiment].items():
        allowed = {_kind(default)} | ({"number"} if default is None else set())
        if _kind(cfg[key]) not in allowed:
            kinds = " or ".join(sorted(allowed))
            raise ConfigError(f"{key} must be a {kinds}, got {cfg[key]!r}")
        if isinstance(default, list) and any(
            _kind(v) != _kind(default[0]) for v in cfg[key]
        ):
            raise ConfigError(f"{key} must hold {_kind(default[0])}s only")
        # a repeated item would run, and write, the same point twice
        if isinstance(default, list) and len(set(cfg[key])) < len(cfg[key]):
            raise ConfigError(f"{key} must not repeat an item, got {cfg[key]!r}")
    if not all(_finite(v) for raw in cfg.values()
               for v in (raw if isinstance(raw, list) else [raw])
               if isinstance(v, (int, float)) and not isinstance(v, bool)):
        raise ConfigError("all numeric parameters must be finite")
    # integer keys (for a list, every item) and their lower bounds
    int_min = {"N_x": 1, "N_y": 1, "n_max": 2, "omega_points": 1,
               "n_circulations": 1, "record_every": 1, "ancilla_cut": 2,
               "sectors": 0, "k_list": 1, "grid_points": 3}
    for key, low in int_min.items():
        values = cfg.get(key, [])
        if any(not isinstance(v, int) or v < low
               for v in (values if isinstance(values, list) else [values])):
            raise ConfigError(f"{key}: need integers >= {low}, "
                              f"got {values!r}")
    for key in ("delta_t", "tol"):
        if cfg.get(key, 1) <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg.get("total_time", 0) < 0:
        raise ConfigError("total_time must be nonnegative")
    if experiment == "spectrum" and 2 not in cfg["sectors"]:
        raise ConfigError("sectors must contain 2, the ground's sector")
    # |K_dt| > pi repeats a beamsplitter angle, and overflows if huge
    if experiment == "steady_state" and not (
        cfg["K_dt_list"] and max(map(abs, cfg["K_dt_list"])) <= math.pi
    ):
        raise ConfigError("K_dt_list must be nonempty, each in [-pi, pi]")
    if experiment == "subtraction" and (
        not cfg["gamma_grid"] or min(cfg["gamma_grid"]) <= 0
    ):
        raise ConfigError("gamma_grid must be nonempty and positive")
    # list keys whose items the run looks up by name
    for key, names in {"inits": INITS, "pulses": experiments.PULSES}.items():
        if any(v not in names for v in cfg.get(key, [])):
            raise ConfigError(f"{key}: pick from {list(names)}, "
                              f"got {cfg[key]!r}")
    # bound the Fock basis a lattice run builds before its model, which a
    # huge lattice would take long to build: sectors 0..n_max hold
    # C(n_sites + n_max, n_max) states (1 for compile and subtraction)
    n_sites = cfg.get("N_x", 1) * cfg.get("N_y", 1)
    if experiment == "spectrum":
        dim = sum(sector_dimension(n_sites, k) for k in set(cfg["sectors"]))
    elif experiment == "quench":
        dim = sector_dimension(n_sites, 2)
    else:
        dim = sector_dimension(n_sites + 1, cfg.get("n_max", 0))
    if dim > MAX_BASIS_STATES:
        raise ConfigError(f"the run's Fock basis exceeds {MAX_BASIS_STATES} "
                          "states; lower the sectors, n_max or lattice size")
    if experiment == "steady_state" and dim > MAX_CHANNEL_STATES:
        raise ConfigError(f"the drive channel's basis of {dim} states exceeds "
                          f"{MAX_CHANNEL_STATES}; lower n_max or the lattice "
                          "size")
    # build the model (and a compile's layout) the run will build, and
    # check the protocol's refresh rule, the drive ancilla's truncation and
    # the size of the subtraction's finest grid, so a config the lattice,
    # schedule, channel or grid rules reject fails here
    try:
        if experiment == "subtraction":
            refined_intervals(cfg["grid_points"], max(cfg["gamma_grid"]))
        if experiment == "incoherent":
            check_refresh(cfg["chi"], cfg["p_ref"])
        for k_dt in cfg.get("K_dt_list", []):
            check_ancilla_cut(complex(cfg["alpha_ratio"] * k_dt),
                              cfg["ancilla_cut"])
        if experiment == "quench":
            build_bose_hubbard(cfg["N_x"], cfg["J"], cfg["U"],
                               boundary=cfg["boundary"])
        elif "phi_plaq" in cfg and cfg.get("geometry", "square") == "square":
            build_fqh(cfg["N_x"], cfg["N_y"], cfg["J"], 0.0, cfg["phi_plaq"])
        if experiment == "compile":
            experiments.compile_schedule(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _kind(v) -> str:
    """JSON kind of a config value; bool is tested before int, its base."""
    return next(name for types, name in (
        (bool, "boolean"), ((int, float), "number"), (str, "string"),
        (list, "list"), (dict, "object"), (type(None), "null"),
    ) if isinstance(v, types))


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:       # an int too large for a float
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
                        help="parallel workers for scans, at most one per core")
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

    scan = ({"threads": max(1, args.threads)}
            if args.experiment == "steady_state" else {})
    try:
        summary = RUNNERS[args.experiment](cfg, args.out, **scan)
    except ProtocolError as exc:       # a rule only the protocol build checks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    experiments.write_manifest(args.out, args.experiment, cfg)
    if summary.get("non_converged"):
        print(f"error: {summary['non_converged']} scan points did not "
              "converge", file=sys.stderr)
        return 2
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
