"""The single-photon-ancilla protocol and the spectrum as a user runs them:
the same bytes for every BLAS thread setting."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _assert_same_bytes_for_blas_threads(tmp_path, argv, outputs):
    # the default 4x4 model: smaller tori may stay below the sizes at which
    # OpenBLAS starts threads, so they cannot show an unpinned build
    outs = []
    for blas in (None, "1"):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        env["PYTHONPATH"] = str(SRC)
        out = tmp_path / f"blas{blas}"
        subprocess.run(
            [sys.executable, "-m", "timebin.cli", *argv, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outs.append(out)
    for name in outputs:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_incoherent_bytes_do_not_depend_on_blas_threads(tmp_path):
    _assert_same_bytes_for_blas_threads(
        tmp_path, ["incoherent", "--set", "n_circulations=50"],
        ("incoherent_trace.csv", "summary.json"))


def test_spectrum_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the sector-2 doublet is exactly degenerate, so its eigenvectors, and
    # with them the summary's alpha and beta, follow the BLAS blocking
    _assert_same_bytes_for_blas_threads(
        tmp_path, ["spectrum"], ("energies.csv", "summary.json"))
