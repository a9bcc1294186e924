"""The command-line contract: a square compile runs from the defaults, the
spectrum reads the unwrapped ground, a config the model cannot take exits 1
with an error line before any work, and no config ends in a traceback."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from timebin import cli
from timebin.dynamics import DriveDissChannel, DriveDissParams
from timebin.fock import enumerate_basis


def test_compile_square_geometry(tmp_path):
    out = tmp_path / "square"
    assert cli.main(["compile", "--set", "geometry=square", "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["equal"] and cert["distance"] < 1e-10
    # a null l_y is the pitch N_x // 2 + 1
    explicit = tmp_path / "explicit"
    argv = ["compile", "--set", "geometry=square", "--set", "l_y=5"]
    assert cli.main(argv + ["--out", str(explicit)]) == 0
    assert ((out / "schedule.txt").read_bytes()
            == (explicit / "schedule.txt").read_bytes())


def test_compile_square_default_pitch_follows_l_x(tmp_path):
    # with no l_y set, the cluster pitch is N_x/2 * l_x + 1
    out = tmp_path / "wide"
    argv = ["compile", "--set", "geometry=square", "--set", "l_x=2"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["equal"] and cert["distance"] < 1e-10


def test_quench_reads_the_wavefront_speed_of_either_sign_of_j(tmp_path):
    # on the even ring, flipping the sign of every other mode turns J into
    # -J, so J = -1 gives J = 1's correlators and antipodal time; at J = 0
    # nothing spreads, and the antipodal point is the last step
    runs = {}
    for j in (1.0, -1.0, 0.0):
        out = tmp_path / f"J{j}"
        assert cli.main(["quench", "--set", f"J={j}", "--out", str(out)]) == 0
        with open(out / "quench_correlator.csv") as fh:
            corr = [float(r["correlator"]) for r in csv.DictReader(fh)]
        runs[j] = json.loads((out / "summary.json").read_text()), corr
    (plus, c_plus), (minus, c_minus), (zero, _) = runs.values()
    assert minus["antipodal_time"] == plus["antipodal_time"] == 2.0
    assert max(abs(a - b) for a, b in zip(c_plus, c_minus)) < 1e-14
    assert zero["antipodal_time"] == zero["n_steps"] * zero["delta_t"]
    assert zero["same_side_mass_antipodal"] == zero["same_side_mass"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--set", "phi_plaq=0.3"],
    ["incoherent", "--set", "n_max=1"],
    ["compile", "--set", "geometry=square", "--set", "N_y=3"],
    ["compile", "--set", "geometry=square", "--set", "N_x=5"],
    ["compile", "--set", "N_x=7"],
    ["compile", "--set", "geometry=hexagonal"],
    ["compile", "--set", "geometry=square", "--set", "l_y=1"],
    # the default N_x = 8 needs a cluster pitch l_y > 4
    ["compile", "--set", "geometry=square", "--set", "l_y=3"],
    ["compile", "--set", "variant=foo"],
    ["compile", "--set", "l_x=0"],
    ["compile", "--set", "geometry=square", "--set", "variant=foo"],
    # a value of another JSON kind than its default
    ["spectrum", "--set", 'N_x="a"'],
    ["spectrum", "--set", "N_x=[1]"],
    ["quench", "--set", 'N_x="a"'],
    ["steady_state", "--set", 'omega_points="x"'],
    ["incoherent", "--set", 'n_circulations="x"'],
    ["subtraction", "--set", "gamma_grid=5"],
    ["spectrum", "--set", "phi_plaq=null"],
    ["quench", "--set", "delta_t=0"],
    ["spectrum", "--set", "sectors=[3]"],
    # values the model or the run cannot take
    ["quench", "--set", "N_x=1"],
    ["quench", "--set", "boundary=foo"],
    ["quench", "--set", "total_time=-1"],
    ["subtraction", "--set", "k_list=[0]"],
    ["subtraction", "--set", "gamma_grid=[-1]"],
    ["spectrum", "--set", "sectors=[2,-1]"],
    ["spectrum", "--set", "sectors=[2,2.5]"],
    ["steady_state", "--set", "ancilla_cut=1"],
    ["steady_state", "--set", "omega_points=2.5"],
    ["incoherent", "--set", "record_every=0"],
    ["incoherent", "--set", "p_ref=2"],
    ["incoherent", "--set", "p_ref=0"],
    ["incoherent", "--set", 'inits=["foo"]'],
    ["subtraction", "--set", 'pulses=["foo"]'],
    # a tol no fixed point can meet
    ["steady_state", "--set", "tol=0"],
    ["steady_state", "--set", "tol=-1"],
    # a coherent drive ancilla that ancilla_cut = 3 truncates
    ["steady_state", "--set", "alpha_ratio=50"],
    # an angle that overflows the drive channel's orbit generator
    ["steady_state", "--set", "alpha_ratio=0", "--set", "K_dt_list=[1e308]"],
    ["subtraction", "--set", "gamma_grid=[Infinity]"],
    # a finest subtraction grid above MAX_FINE_POINTS (2,147,483,649 and
    # 8,000,000,001 points)
    ["subtraction", "--set", "gamma_grid=[1e7]"],
    ["subtraction", "--set", "grid_points=1000000001"],
    # an integer too large for a float
    ["spectrum", "--set", "U=1" + "0" * 400],
    # a Fock basis above MAX_BASIS_STATES (4,845 and 16,524 states)
    ["incoherent", "--set", "n_max=4"],
    ["spectrum", "--set", "sectors=[1,2,5]"],
    # a drive-channel basis above MAX_CHANNEL_STATES (1,771 states)
    ["steady_state", "--set", "N_x=4", "--set", "N_y=5", "--set", "n_max=3"],
    # rules only the protocol build checks: a transfer probability of 717
    # per circulation, and U = 0 (no two-state ground doublet)
    ["incoherent", "--set", "N_x=2", "--set", "N_y=2",
     "--set", "n_circulations=3", "--set", "chi=5.0"],
    ["incoherent", "--set", "N_x=2", "--set", "N_y=2",
     "--set", "n_circulations=3", "--set", "U=0"],
])
def test_model_errors_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("experiment,key", [
    (experiment, key) for experiment, defaults in sorted(cli.DEFAULTS.items())
    for key, default in defaults.items() if isinstance(default, list)
])
def test_repeated_list_items_exit_one(experiment, key, tmp_path, capsys):
    # a repeated item would run, and write, the same rows twice: every list
    # key refuses one, on the small configs the fuzz test runs
    first = cli.DEFAULTS[experiment][key][0]
    argv = [experiment]
    for fixed, value in FUZZ_FIXED[experiment].items():
        argv += ["--set", f"{fixed}={json.dumps(value)}"]
    argv += ["--set", f"{key}={json.dumps([first, first])}"]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert "must not repeat" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_and_steady_state_read_the_unwrapped_ground(tmp_path):
    # at U = 40 doublon states wrap below the FQH doublet on the principal
    # branch (one at -10.80, with <H> = +29.2); the ground rule skips them,
    # and the drive resonance eps_FQH / 2 follows the doublet
    out = tmp_path / "spectrum"
    assert cli.main(["spectrum", "--set", "U=40", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ground_energy"] == pytest.approx(-5.578, abs=1e-3)
    assert summary["overlap_value"] > 0.9
    out = tmp_path / "steady"
    argv = ["steady_state", "--set", "U=40", "--set", "omega_points=1",
            "--set", "tol=1"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    steady = json.loads((out / "summary.json").read_text())
    assert steady["resonance_omega"] == pytest.approx(-2.789, abs=1e-3)


# any float, or one near the bounds the run can take
@settings(max_examples=100)
@given(
    tol=st.floats() | st.floats(0.0, 1.0),
    alpha_ratio=st.floats() | st.floats(-1.0, 1.0),
    ancilla_cut=st.integers(1, 6),
    k_dt_list=st.lists(st.floats() | st.floats(-4.0, 4.0), max_size=3),
)
def test_accepted_steady_configs_build_their_drive_channels(
        tol, alpha_ratio, ancilla_cut, k_dt_list):
    overrides = [("tol", json.dumps(tol)),
                 ("alpha_ratio", json.dumps(alpha_ratio)),
                 ("ancilla_cut", json.dumps(ancilla_cut)),
                 ("K_dt_list", json.dumps(k_dt_list))]
    try:
        cfg = cli.load_config("steady_state", overrides=overrides)
    except cli.ConfigError:
        return
    assert cfg["tol"] > 0
    basis = enumerate_basis(16, range(cfg["n_max"] + 1))
    for k_dt in cfg["K_dt_list"]:
        p = DriveDissParams.from_circuit(k_dt, cfg["alpha_ratio"] * k_dt,
                                         0.0, cfg["delta_t"])
        for site in range(16):
            DriveDissChannel(basis, site, p, cfg["ancilla_cut"])


def test_scan_without_two_photons_reports_no_overlap_peak(tmp_path):
    # with no drive (alpha = 0 or K_dt = 0) the steady state is the vacuum,
    # so no point has an overlap and the summary names no peak
    for name, override in (("alpha0", "alpha_ratio=0"),
                           ("kdt0", "K_dt_list=[0.0]")):
        out = tmp_path / name
        argv = ["steady_state", "--set", override, "--set", "omega_points=1"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        (point,) = [v for k, v in summary.items() if k.startswith("Kdt_")]
        assert point["peak_overlap"] is None
        assert point["peak_overlap_omega"] is None
        assert point["peak_n_photon"] == 0.0


def test_odd_flux_spectrum_skips_the_analytic_overlap(tmp_path):
    # one flux quantum on the 2x2 torus: the spectrum is written, but there
    # is no two-photon analytic ground to compare with
    out = tmp_path / "odd"
    argv = ["spectrum", "--set", "N_x=2", "--set", "N_y=2",
            "--set", "phi_plaq=0.25"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "gap" in summary and "overlap_value" not in summary


def test_protocol_trace_holds_every_sector(tmp_path):
    # at n_max = 4 the trace has P0..P4, and each row sums to one
    out = tmp_path / "nmax4"
    argv = ["incoherent", "--set", "N_x=2", "--set", "N_y=2",
            "--set", "n_max=4", "--set", "n_circulations=2000",
            "--set", "record_every=500"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    with open(out / "incoherent_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[2:7] == ["P0", "P1", "P2", "P3", "P4"]
    assert len(rows) == 10
    for row in rows:
        total = sum(float(row[f"P{k}"]) for k in range(5))
        assert total == pytest.approx(1.0, abs=1e-12)


# --set values per experiment on small lattices, short scans, few
# circulations and coarse pulse grids: each pool mixes values the run takes
# with ones it rejects
FUZZ_VALUES = {
    "quench": {
        "N_x": [1, 2, 3, 5], "J": [0.0, 1.0, -1.0], "U": [0.0, 10.0, -3.0],
        "delta_t": [0.2, 2.0, -0.1], "total_time": [0.0, 0.4, -1.0],
        "boundary": ["open", "periodic", "foo"],
    },
    "spectrum": {
        "N_x": [1, 2, 3], "N_y": [1, 2, 3], "U": [0.0, 10.0, 40.0],
        "phi_plaq": [0.0, 0.25, 0.5, 1 / 3, 0.3, -0.25],
        "delta_t": [0.25, 3.0, 1e-3],
        "sectors": [[1, 2], [2], [0, 2, 3], [1], []],
    },
    "steady_state": {
        "N_x": [1, 2], "N_y": [2], "U": [0.0, 10.0],
        "phi_plaq": [0.0, 0.25, 0.5], "delta_t": [0.25, 3.0],
        "K_dt_list": [[0.1], [0.0], [0.1, 0.5], [], [4.0]],
        "alpha_ratio": [0.0, 0.1, 3.0], "omega_points": [1, 2],
        "omega_min": [-2.85, 0.0], "n_max": [1, 2, 3],
        "ancilla_cut": [1, 2, 3], "tol": [1e-2, 0.0],
    },
    "incoherent": {
        "N_x": [1, 2], "N_y": [2], "U": [0.0, 10.0],
        "phi_plaq": [0.0, 0.25, 0.5], "delta_t": [0.25, 3.0],
        "chi": [0.0, 0.048, 5.0], "p_ref": [0.0, 0.01, 1.0],
        "n_max": [1, 2, 3, 4], "n_circulations": [1, 7],
        "record_every": [1, 3, 50], "inits": [["vacuum"], ["ground"], []],
    },
    "subtraction": {
        "grid_points": [17, 257, 0, 1, 2.5],
        "gamma_grid": [[50.0], [100.0, 316.0], [1000.0], [-1]],
        "k_list": [[1], [1, 2, 3], [2], [0]],
        "pulses": [["square"], ["bump"], ["square", "bump"], [], ["foo"]],
    },
    "compile": {
        "geometry": ["chain", "square"], "N_x": [2, 3, 4, 6],
        "N_y": [2, 4], "phi_plaq": [0.0, 0.25], "delta_t": [0.2, 5.0],
        "variant": ["even_simple", "general", "foo"], "l_x": [0, 1, 2],
        "l_y": [None, 1, 3, 5],
    },
}
# keys a drawn config always sets, so no run falls back to a large default
FUZZ_FIXED = {
    "quench": {}, "spectrum": {"N_x": 2, "N_y": 2}, "compile": {},
    "subtraction": {"grid_points": 17, "gamma_grid": [100.0]},
    "steady_state": {"N_x": 2, "N_y": 2, "omega_points": 1},
    "incoherent": {"N_x": 2, "N_y": 2, "n_circulations": 3},
}


@st.composite
def cli_configs(draw):
    experiment = draw(st.sampled_from(sorted(FUZZ_VALUES)))
    pools = FUZZ_VALUES[experiment]
    cfg = dict(FUZZ_FIXED[experiment])
    for key in draw(st.lists(st.sampled_from(sorted(pools)), unique=True)):
        cfg[key] = draw(st.sampled_from(pools[key]))
    return experiment, cfg


@settings(max_examples=100)
@given(cli_configs())
# a scan whose points never hold two photons, an odd total flux, and a
# coupling the protocol's explicit step cannot take (chi dt = 1.25)
@example(("steady_state", {"N_x": 2, "N_y": 2, "omega_points": 1,
                           "alpha_ratio": 0.0}))
@example(("spectrum", {"N_x": 2, "N_y": 2, "phi_plaq": 0.25}))
@example(("incoherent", {"N_x": 2, "N_y": 2, "n_circulations": 3,
                         "chi": 5.0}))
def test_cli_fuzz_exits_cleanly(config):
    # every --set config ends in exit 0, 1 or 2, with an error line for the
    # nonzero codes, and never in an exception; exit 1 writes nothing, and
    # the other codes write manifest.json
    experiment, cfg = config
    argv = [experiment]
    for key, value in cfg.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        out = Path(tmp) / "out"
        rc = cli.main(argv + ["--out", str(out)])
        written = out.exists(), (out / "manifest.json").exists()
    assert rc in (0, 1, 2)
    assert written == ((False, False) if rc == 1 else (True, True))
    assert "Traceback" not in err.getvalue()
    if rc:
        assert err.getvalue().startswith("error:")
