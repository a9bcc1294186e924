"""Regenerate the pinned CLI outputs that tests/test_golden.py compares.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case lives in tests/golden/<experiment>/<case>/: the script writes the
case's config.json (the keys it sets over the CLI defaults), runs
``timebin <experiment> --config config.json`` through ``cli.main`` and
replaces every output file of the case with the new run's.  A change that
means to move an output runs this and names the moved fields in CHANGES.md.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from timebin import cli

GOLDEN = Path(__file__).resolve().parent

# (experiment, case) -> config keys over the CLI defaults
CASES = {
    ("quench", "default"): {},
    ("spectrum", "default"): {},
    # the two-point 3x4 scan of tests/test_steady_scan.py
    ("steady_state", "scan3x4"): {"N_x": 3, "N_y": 4, "omega_min": -2.8,
                                  "omega_max": -2.5, "omega_points": 2,
                                  "tol": 1e-3},
    ("incoherent", "fqh4x4"): {"n_circulations": 250},
    ("subtraction", "reduced"): {"grid_points": 257,
                                 "gamma_grid": [50.0, 4000.0]},
    ("compile", "chain_even_simple"): {"geometry": "chain",
                                       "variant": "even_simple"},
    ("compile", "chain_general"): {"geometry": "chain", "variant": "general"},
    ("compile", "square"): {"geometry": "square"},
}


def main():
    for (experiment, case), cfg in CASES.items():
        case_dir = GOLDEN / experiment / case
        if case_dir.exists():
            shutil.rmtree(case_dir)
        case_dir.mkdir(parents=True)
        config = case_dir / "config.json"
        config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            rc = cli.main([experiment, "--config", str(config),
                           "--out", str(out)])
            if rc != 0:
                sys.exit(f"{experiment}/{case} exited {rc}")
            for path in sorted(out.iterdir()):
                shutil.copy(path, case_dir / path.name)
        print(f"{experiment}/{case}: "
              + ", ".join(p.name for p in sorted(case_dir.iterdir())))


if __name__ == "__main__":
    main()
