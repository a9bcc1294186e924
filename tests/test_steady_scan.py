"""The steady-state scan as a user runs it: the same bytes for every worker
count and BLAS thread setting, no worker left behind, and its config
checked before any work starts."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

from timebin import cli, experiments
from timebin.experiments import run_steady_state

SRC = Path(__file__).resolve().parents[1] / "src"
# two points on the 3x4 torus (sectors 0..2, dim 91), near the one-photon
# resonance and off it.  The 2x4 torus is cheaper, but its sector-2
# spectrum comes out bit-identical for any BLAS thread count, so it cannot
# show a spectrum computed outside the pinned region.
SCAN = {"N_x": 3, "N_y": 4, "omega_min": -2.8, "omega_max": -2.5,
        "omega_points": 2, "tol": 1e-3}


def test_scan_bytes_do_not_depend_on_workers_or_blas_threads(tmp_path):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(SCAN))
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        argv = ["steady_state", "--config", str(config), "--out", str(out),
                "--threads", str(threads)]
        assert cli.main(argv) == 0
        outs.append(out)
    for blas in (None, "1"):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        env["PYTHONPATH"] = str(SRC)
        out = tmp_path / f"blas{blas}"
        subprocess.run(
            [sys.executable, "-m", "timebin.cli", "steady_state",
             "--config", str(config), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outs.append(out)
    for name in ("steady_state.csv", "summary.json"):
        first = (outs[0] / name).read_bytes()
        for out in outs[1:]:
            assert (out / name).read_bytes() == first, (out.name, name)


def test_scan_pool_leaves_no_worker(tmp_path):
    cfg = cli.load_config(
        "steady_state", overrides=[(k, json.dumps(v)) for k, v in SCAN.items()]
    )
    summary = run_steady_state(cfg, str(tmp_path), threads=2)
    assert summary["n_points"] == 2
    assert multiprocessing.active_children() == []


def test_scan_workers_never_exceed_jobs_or_cores(tmp_path, monkeypatch):
    # the pool forks all its workers at once, so a huge --threads must not
    # reach it; a stand-in records the count and runs the jobs in process
    seen = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            seen.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_worker_scan", None)
    scan = dict(SCAN, N_x=2, omega_points=3)
    cfg = cli.load_config(
        "steady_state", overrides=[(k, json.dumps(v)) for k, v in scan.items()]
    )
    for cores, want in ((2, 2), (8, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda n=cores: n)
        summary = run_steady_state(cfg, str(tmp_path), threads=10**6)
        assert summary["n_points"] == 3
        assert seen.pop() == want, cores


def test_steady_state_rejects_n_max_below_two(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["steady_state", "--set", "n_max=1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "n_max" in err
    assert "Traceback" not in err
    assert not out.exists()
