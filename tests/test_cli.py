"""The command-line contract: a square compile runs from the defaults, and
a config the model cannot take exits 1 with an error line before any work."""

import json

import pytest

from timebin import cli


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
])
def test_model_errors_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()
