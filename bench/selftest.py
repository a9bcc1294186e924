"""Fast self-tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default `pytest` collection.
"""

import inspect
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import timebin  # noqa: E402
import timebin.cli  # noqa: E402
import timebin.experiments  # noqa: E402

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402


def bindings():
    """Identity of every module global, class attribute and module-level
    dict entry in the package: everything the tracer may rebind."""
    out = {}
    for modname, module in sys.modules.items():
        if module is None or not modname.startswith("timebin"):
            continue
        for name, val in vars(module).items():
            out[(modname, name)] = id(val)
            if isinstance(val, dict):
                for key, item in val.items():
                    out[(modname, name, repr(key))] = id(item)
            if inspect.isclass(val) and val.__module__ == modname:
                for attr, item in vars(val).items():
                    out[(modname, name, "." + attr)] = id(item)
    return out


def test_tracer_restores_every_binding():
    before = bindings()
    originals = (timebin.experiments.fixed_point, timebin.cli.RUNNERS["quench"],
                 timebin.derive_quantities,
                 timebin.dynamics.CirculationChannel.__call__)
    with Tracer() as tr:
        during = bindings()
        assert timebin.experiments.fixed_point is not originals[0]
        assert timebin.experiments.fixed_point is timebin.dynamics.fixed_point
        assert timebin.cli.RUNNERS["quench"] is not originals[1]
        assert timebin.derive_quantities is timebin.subtraction.derive_quantities
        assert timebin.derive_quantities is not originals[2]
        assert timebin.dynamics.CirculationChannel.__call__ is not originals[3]
        assert "dynamics.fixed_point" in tr.wrapped
    assert during != before
    assert bindings() == before
    assert timebin.experiments.fixed_point is originals[0]
    assert timebin.cli.RUNNERS["quench"] is originals[1]


def test_tracer_spans_self_time_and_hooks():
    seen = []
    tr = Tracer(hooks={"fock.enumerate_basis":
                       lambda t, args, kwargs, result: seen.append(result.dim)})
    with tr:
        basis = timebin.fock.enumerate_basis(3, {2})
        timebin.fock.product_fock_state(basis, (1, 1, 0))
        timebin.lattice.trotter_step_sequence(
            timebin.lattice.build_bose_hubbard(3, 1.0, 2.0), 0.1, n_max=2)
    assert seen == [6]
    s = tr.summary()
    assert s["fock.enumerate_basis"]["calls"] == 1
    # trotter_step_sequence calls edge_coloring and onsite_phase_table
    outer = s["lattice.trotter_step_sequence"]
    inner = sum(s[n]["s"] for n in ("lattice.edge_coloring",
                                    "lattice.onsite_phase_table"))
    assert outer["self_s"] == pytest.approx(outer["s"] - inner, abs=1e-12)
    assert all(end >= start for _, start, end, _ in tr.spans)
    # uninstalled: calls no longer add spans
    n = len(tr.spans)
    timebin.fock.enumerate_basis(3, {1})
    assert len(tr.spans) == n


def test_one_photon_step_matches_program():
    model = timebin.lattice.build_fqh(4, 2, 1.0, 0.0, 0.25)
    seq = timebin.lattice.trotter_step_sequence(model, 0.3, n_max=1)
    basis = timebin.fock.enumerate_basis(model.n_sites, {1})
    u = np.eye(basis.dim, dtype=complex)
    for d in seq:
        u = timebin.gates.gate_matrix(d, basis).entries @ u
    g = reference.one_photon_step(
        model.n_sites,
        [(d.modes[0], d.modes[1], d.params["theta"], d.params["phi"]) for d in seq])
    order = [basis.index[tuple(int(i == s) for i in range(model.n_sites))]
             for s in range(model.n_sites)]
    assert np.max(np.abs(u[np.ix_(order, order)] - g)) < 1e-13


def test_permanents_match_three_photon_gates():
    model = timebin.lattice.build_bose_hubbard(5, 1.0, 0.0)
    seq = timebin.lattice.trotter_step_sequence(model, 0.4, n_max=3)
    basis = timebin.fock.enumerate_basis(5, {3})
    psi = timebin.fock.product_fock_state(basis, (1, 0, 1, 1, 0))
    for _ in range(3):
        for d in seq:
            psi = timebin.gates.apply_gate(psi, timebin.gates.gate_matrix(d, basis))
    g = reference.one_photon_step(
        5, [(d.modes[0], d.modes[1], d.params["theta"], d.params["phi"]) for d in seq])
    want = reference.free_boson_amplitudes(
        np.linalg.matrix_power(g, 3), basis.occupations(), (0, 2, 3))
    assert np.max(np.abs(psi.amplitudes - want)) < 1e-13
    assert np.sum(np.abs(want) ** 2) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("gamma", [20.0, 300.0])
def test_square_closed_forms_match_program(gamma):
    sub = timebin.subtraction
    pulse = sub.PulseShape.square()
    assert sub.p_fail_k1(pulse, gamma) == pytest.approx(
        reference.square_p_fail_k1(gamma), rel=1e-4)
    for k in (1, 2):
        want = reference.square_infidelity(gamma, k)
        assert 1 - sub.f_sub_single(pulse, gamma, k) == pytest.approx(want, rel=1e-4)
        assert sub.closed_form_infidelity_square(gamma, k) == pytest.approx(
            want, rel=1e-12)


def test_run_refuses_checkout_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quick_suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
