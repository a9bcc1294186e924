"""Every pinned CLI output under tests/golden/<experiment>/<case>/ comes out
again from its config.json, run through ``cli.main``.

Strings, integers, booleans and nulls must match exactly, and so must every
float this file names no tolerance for.  A named float may move by
rtol * |want| + atol: the round-off such a column has moved by when a change
reordered its arithmetic or ran on another BLAS kernel (CHANGES.md records
each move), with headroom, and far below what a change to the formulas or
the grids moves.  The fields that depend on which eigenvectors span a
degenerate doublet are only checked to be present.
tests/golden/regenerate.py rewrites the outputs and documents how.
"""

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from tests.golden import regenerate
from timebin import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.parent for p in GOLDEN.glob("*/*/config.json"))

# name -> (rtol, atol), for a CSV column, a JSON key or a whole text file
TOLERANCES = {
    # quench: correlator entries move by <= 4.4e-16 absolute (some are
    # round-off around 0), the summary's masses and sums by <= 2.4e-15
    # relative, on another BLAS kernel
    "correlator": (0.0, 1e-14),
    "same_side_mass": (1e-13, 0.0),
    "opposite_side_mass": (1e-13, 0.0),
    "same_side_mass_antipodal": (1e-13, 0.0),
    "opposite_side_mass_antipodal": (1e-13, 0.0),
    "sum_rule": (1e-13, 0.0),
    "final_norm": (1e-13, 0.0),
    # spectrum and steady_state: energies and eigenphases (some near 0)
    # move by <= 1.8e-15 absolute, so do the gaps and the splitting, whose
    # golden value is 0; the doublet overlap by <= 1.4e-15 relative
    "energy": (0.0, 1e-13),
    "eigenphase_re": (0.0, 1e-13),
    "eigenphase_im": (0.0, 1e-13),
    "ground_energy": (0.0, 1e-13),
    "gap": (0.0, 1e-13),
    "degeneracy_split": (0.0, 1e-13),
    "eps_fqh": (0.0, 1e-13),
    "resonance_omega": (0.0, 1e-13),
    "sector1_resonance": (0.0, 1e-13),
    "overlap_value": (1e-13, 0.0),
    # steady_state and incoherent: populations and moments move by
    # <= 4.7e-14 relative.  residual, the trace norm of a step of ~1e-4,
    # moves by <= 2.8e-16 absolute, up to 2.2e-9 relative.  iterations
    # compare exactly: each pinned point stops >= 1e-3 relative on either
    # side of tol, far beyond a last-bit move of rho.
    "n_photon": (1e-12, 0.0),
    "P0": (1e-12, 0.0),
    "P1": (1e-12, 0.0),
    "P2": (1e-12, 0.0),
    "P3": (1e-12, 0.0),
    "P2_over_P1": (1e-12, 0.0),
    "overlap": (1e-12, 0.0),
    "peak_n_photon": (1e-12, 0.0),
    "peak_overlap": (1e-12, 0.0),
    "ground_population": (1e-12, 0.0),
    "N_mean": (1e-12, 0.0),
    "N_var": (1e-12, 0.0),
    "residual": (0.0, 1e-14),
    # incoherent: the ancilla phase-gate offsets, by <= 3.2e-16 relative
    "phi_1": (1e-13, 0.0),
    "phi_2": (1e-13, 0.0),
    # subtraction.csv: the uniform-grid kernels moved p_fail (and the worst
    # gate infidelity it sets) by 4.4e-14 relative at a cancellation, and
    # either fidelity by 6.4e-15
    "p_fail": (1e-12, 0.0),
    "inf_gate_worstcase": (1e-12, 0.0),
    "f_sub_single": (1e-13, 0.0),
    "f_sub_double": (1e-13, 0.0),
    # summary.json: the estimates moved by 3.9e-15 relative; the
    # infidelities are 1 - F with F ~ 0.9998, so a few ulps of F (2.2e-15
    # recorded) are their round-off.  The closed forms are exp arithmetic.
    "p_fail_k1": (1e-12, 0.0),
    "p_fail_k2": (1e-12, 0.0),
    "infidelity_k1": (0.0, 1e-14),
    "infidelity_k2": (0.0, 1e-14),
    "closed_form_k1": (1e-13, 0.0),
    "closed_form_k2": (1e-13, 0.0),
    # certificate.json: distance and phase of two unitaries with O(1)
    # entries; the golden values are themselves round-off (<= 1.2e-16)
    "distance": (0.0, 1e-14),
    "global_phase_re": (0.0, 1e-14),
    "global_phase_im": (0.0, 1e-14),
    # schedule.txt: angles |w| dt and gauge phases, one or two operations
    # from their inputs; every compile output has stayed byte-identical
    "schedule.txt": (1e-14, 1e-15),
}


# spectrum summary: the doublet coefficients in the eigensolver's basis of
# the degenerate pair, moved by up to 1.3 on another BLAS kernel while
# overlap_value held
BASIS_DEPENDENT = {"alpha_re", "alpha_im", "beta_re", "beta_im"}


def _close(got: float, want: float, name: str) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    if name not in TOLERANCES:
        return got == want
    rtol, atol = TOLERANCES[name]
    return abs(got - want) <= rtol * abs(want) + atol


def _is_int(token: str) -> bool:
    return token.lstrip("-").isdigit()


def _check_token(got: str, want: str, name: str, where: str):
    """Integer and rational tokens exactly, other numbers by the tolerance
    of name, anything else as a string."""
    if _is_int(got) and _is_int(want) or "/" in want:
        assert Fraction(got) == Fraction(want), where
        return
    try:
        g, w = float(got), float(want)
    except ValueError:
        assert got == want, where
        return
    assert _close(g, w, name), f"{where}: {got} against {want}"


def _check_json(got, want, name: str, where: str):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want.keys() - BASIS_DEPENDENT:
            _check_json(got[key], want[key], key, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _check_json(g, w, name, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and _close(got, want, name), (
            f"{where}: {got!r} against {want!r}")
    else:
        assert type(got) is type(want) and got == want, (
            f"{where}: {got!r} against {want!r}")


def _check_csv(got: Path, want: Path):
    with open(got, newline="") as fh:
        got_rows = list(csv.reader(fh))
    with open(want, newline="") as fh:
        want_rows = list(csv.reader(fh))
    header = want_rows[0]
    assert got_rows[0] == header and len(got_rows) == len(want_rows)
    for i, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), 1):
        assert len(g_row) == len(w_row), f"{want.name} row {i}"
        for col, g, w in zip(header, g_row, w_row):
            _check_token(g, w, col, f"{want.name} row {i} {col}")


def _check_text(got: Path, want: Path):
    got_lines = got.read_text().splitlines()
    want_lines = want.read_text().splitlines()
    assert len(got_lines) == len(want_lines), want.name
    for i, (g_line, w_line) in enumerate(zip(got_lines, want_lines), 1):
        g_tok = g_line.replace(":", " ").split()
        w_tok = w_line.replace(":", " ").split()
        assert len(g_tok) == len(w_tok), f"{want.name} line {i}"
        for g, w in zip(g_tok, w_tok):
            _check_token(g, w, want.name, f"{want.name} line {i}")


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c.parent.name}/{c.name}" for c in CASES])
def test_cli_outputs_match_golden(case, tmp_path):
    out = tmp_path / "out"
    argv = [case.parent.name, "--config", str(case / "config.json"),
            "--out", str(out)]
    assert cli.main(argv) == 0
    pinned = sorted(p.name for p in case.iterdir() if p.name != "config.json")
    assert sorted(p.name for p in out.iterdir()) == pinned
    for name in pinned:
        got, want = out / name, case / name
        if name.endswith(".json"):
            _check_json(json.loads(got.read_text()),
                        json.loads(want.read_text()), name, name)
        elif name.endswith(".csv"):
            _check_csv(got, want)
        else:
            _check_text(got, want)


def test_golden_cases_are_present():
    # an empty glob would collect no case above and pass silently
    assert {(c.parent.name, c.name) for c in CASES} == set(regenerate.CASES)
