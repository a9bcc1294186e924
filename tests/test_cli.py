"""The command-line contract: a square compile runs from the defaults, the
spectrum reads the unwrapped ground, and a config the model cannot take
exits 1 with an error line before any work."""

import json

import pytest
from hypothesis import given, settings, strategies as st

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
    # an integer too large for a float
    ["spectrum", "--set", "U=1" + "0" * 400],
])
def test_model_errors_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
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
@settings(max_examples=100, deadline=None)
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
