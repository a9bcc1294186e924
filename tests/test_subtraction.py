import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from timebin import experiments, subtraction
from timebin.subtraction import (
    PulseShape,
    closed_form_infidelity_square,
    derive_quantities,
    f_sub_double,
    f_sub_single,
    gate_infidelity,
    p_fail_k1,
    p_fail_k2,
)


@pytest.fixture(scope="module")
def square():
    return PulseShape.square()


@pytest.fixture(scope="module")
def bump():
    return PulseShape.bump()


def exact_square_p_fail(gamma):
    # u = 1 on [0,1]: u - u~ = e^{-2 gamma t}; body (1-e^{-4g})/(4g),
    # tail (1-e^{-2g})^2/(4g)
    e2 = np.exp(-2 * gamma)
    e4 = np.exp(-4 * gamma)
    return (1 - e4) / (4 * gamma) + (1 - e2) ** 2 / (4 * gamma)


def lipschitz_gamma_threshold(pulse: PulseShape, eps: float) -> float:
    """Coupling above which the failure probability provably drops below
    4 eps for a smooth pulse: max of (1/(2 eta eps)) ln(M/eps), 2M, and
    M^2 / (4 eps), with M the sup of u and 1/eta its Lipschitz constant."""
    if not 0 < eps < 0.25:
        raise ValueError("eps must be in (0, 1/4)")
    M = float(np.max(pulse.samples))
    slope = float(np.max(np.abs(np.gradient(pulse.samples, pulse.grid))))
    eta = 1.0 / slope if slope > 0 else np.inf
    terms = [2.0 * M, M**2 / (4.0 * eps)]
    if np.isfinite(eta):
        terms.append(np.log(M / eps) / (2.0 * eta * eps))
    return float(max(terms))


def test_normalization(square, bump):
    assert square.norm_defect() < 1e-10
    assert bump.norm_defect() < 1e-10


def test_square_u_tilde_analytic(square):
    g = 7.0
    d = derive_quantities(square, g)
    assert np.max(np.abs(d.u_tilde - (1 - np.exp(-2 * g * d.grid)))) < 1e-10
    assert d.ode_residual() < 1e-8
    assert d.G[0] == pytest.approx(1.0) and abs(d.G[-1]) < 1e-12
    assert np.all(np.diff(d.G) <= 1e-15)


def test_large_gamma_limit_bump(bump):
    # u~ -> u pointwise away from t = 0 as gamma -> infinity
    d = derive_quantities(bump, 1e4)
    sel = d.grid > 0.05
    assert np.max(np.abs(d.u_tilde[sel] - d.u[sel])) < 0.01


def test_p_fail_k1_square_benchmark(square):
    # the benchmark coupling gives exactly (1-e^{-4g})/4g + (1-e^{-2g})^2/4g
    # = 1.24997e-4, quoted as 0.00012 at two significant figures
    g = 4000.0
    p = p_fail_k1(derive_quantities(square, g))
    assert p == pytest.approx(exact_square_p_fail(g), rel=1e-4)
    assert p == pytest.approx(1.25e-4, rel=0.02)


def test_p_fail_monotone_in_gamma(square, bump):
    for pulse in (square, bump):
        vals = [p_fail_k1(derive_quantities(pulse, g))
                for g in (10.0, 1e2, 1e3, 1e4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_p_fail_small_gamma_limit(square):
    # no smoothing: u~ ~ 0 and p_fail -> int |u|^2 = 1
    d = derive_quantities(square, 1e-6)
    assert p_fail_k1(d) == pytest.approx(1.0, abs=1e-4)
    assert p_fail_k2(d) == pytest.approx(1.0, abs=1e-4)


def test_p_fail_k2_matches_k1_at_benchmark(square):
    d = derive_quantities(square, 4000.0)
    p2 = p_fail_k2(d)
    p1 = p_fail_k1(d)
    assert p2 == pytest.approx(p1, rel=0.05)


def test_p_fail_k2_bounded_by_subtraction_infidelity(square, bump):
    for pulse in (square, bump):
        for g in (10.0, 100.0, 1000.0):
            d = derive_quantities(pulse, g)
            assert p_fail_k2(d) <= 1 - f_sub_single(d, 2) + 1e-12


def test_closed_forms_match_quadrature(square):
    for g in (1.0, 10.0, 100.0):
        for k in (1, 2):
            quad_val = 1 - f_sub_single(derive_quantities(square, g), k)
            closed = closed_form_infidelity_square(g, k)
            assert quad_val == pytest.approx(closed, rel=1e-6)


def test_f_sub_benchmark_values(square):
    d = derive_quantities(square, 4000.0)
    assert 1 - f_sub_single(d, 1) == pytest.approx(2.5e-4, rel=0.02)
    assert 1 - f_sub_single(d, 2) == pytest.approx(5.0e-4, rel=0.02)


def test_single_layer_scaling(square):
    # 1/gamma scaling of the square-pulse infidelity (exact for the square
    # pulse; the bump decays faster since its endpoints vanish)
    gs = np.array([1e2, 1e3, 1e4])
    for k in (1, 2, 3):
        vals = np.array([1 - f_sub_single(derive_quantities(square, g), k)
                         for g in gs])
        slope = np.polyfit(np.log(gs), np.log(vals), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


def test_double_layer_scaling_and_k_monotonicity(square):
    gs = np.array([1e2, 1e3, 1e4])
    for k in (2, 3, 4):
        vals = np.array([1 - f_sub_double(derive_quantities(square, g), k)
                         for g in gs])
        slope = np.polyfit(np.log(gs), np.log(vals), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)
    d = derive_quantities(square, 60.0)
    at60 = [1 - f_sub_double(d, k) for k in (2, 3, 4, 5)]
    assert all(a < b for a, b in zip(at60, at60[1:]))


def test_double_layer_small_gamma(square):
    assert f_sub_double(derive_quantities(square, 1e-6), 2) == pytest.approx(
        0.0, abs=1e-6)
    with pytest.raises(ValueError):
        f_sub_double(derive_quantities(square, 10.0), 1)


def test_bump_beats_square(square, bump):
    for g in (10.0, 100.0, 1000.0):
        assert (1 - f_sub_single(derive_quantities(bump, g), 1)
                < 1 - f_sub_single(derive_quantities(square, g), 1))


def test_quadrature_convergence(square, bump):
    # doubling the base grid moves the reported values by < 1e-7 relative
    for g in (50.0, 4000.0):
        for mk, k in ((f_sub_single, 1), (f_sub_double, 2)):
            coarse = mk(derive_quantities(PulseShape.square(4097), g), k)
            fine = mk(derive_quantities(PulseShape.square(8193), g), k)
            assert abs(fine - coarse) <= 1e-7 * max(abs(fine), 1e-30)
    pb1 = p_fail_k1(derive_quantities(PulseShape.bump(4097), 100.0))
    pb2 = p_fail_k1(derive_quantities(PulseShape.bump(8193), 100.0))
    assert abs(pb2 - pb1) <= 1e-7 * pb1


def test_gate_infidelity():
    assert gate_infidelity(0.3, 0.0) == 0.0
    p = 1.25e-4
    worst = gate_infidelity(p, np.pi)
    assert worst == pytest.approx(4 * p * (1 - p), rel=1e-12)
    with pytest.raises(ValueError):
        gate_infidelity(1.5, 0.1)


def test_lipschitz_threshold_controls_p_fail(bump):
    # numerical form of the smooth-pulse coupling bound: above the
    # threshold, p_fail < 4 eps
    for eps in (0.05, 0.02, 0.01):
        g = lipschitz_gamma_threshold(bump, eps)
        assert p_fail_k1(derive_quantities(bump, g)) < 4 * eps
    with pytest.raises(ValueError):
        lipschitz_gamma_threshold(bump, 0.5)


def test_estimators_read_only_their_derivation(square):
    # each estimator takes one derivation and no pulse, gamma or second
    # derivation, and reads gamma from it: the square-pulse values follow
    # the closed forms at the derivation's own gamma
    for est in (p_fail_k1, p_fail_k2, f_sub_single, f_sub_double):
        params = list(inspect.signature(est).parameters)
        assert params[0] == "d" and set(params) <= {"d", "k"}, est.__name__
    for g in (20.0, 300.0):
        d = derive_quantities(square, g)
        assert p_fail_k1(d) == pytest.approx(exact_square_p_fail(g), rel=1e-4)
        for k in (1, 2):
            assert 1 - f_sub_single(d, k) == pytest.approx(
                closed_form_infidelity_square(g, k), rel=1e-6)


def test_half_step_arrays_are_the_pulse_on_the_half_grid(square, bump):
    # the estimators' half-step forcings come from derive_quantities; they
    # equal sampling the pulse on the half grid and integrating G there
    from scipy.integrate import cumulative_simpson
    for pulse in (square, bump):
        for gamma in (100.0, 4000.0):
            d = derive_quantities(pulse, gamma)
            t2 = np.linspace(0.0, 1.0, 2 * (d.grid.size - 1) + 1)
            assert np.array_equal(d.u_half, pulse.func(t2))
            assert np.array_equal(
                d.G_half,
                1.0 - cumulative_simpson(d.u_half**2, x=t2, initial=0.0))
            assert np.array_equal(d.u_half[::2], d.u)
            assert np.array_equal(d.u_tilde_half[::2], d.u_tilde)
            assert np.array_equal(d.G_half[::2], d.G)


def test_run_subtraction_derives_once_per_pulse_and_gamma(monkeypatch, tmp_path):
    calls = []
    estimates = []

    def counted(pulse, gamma):
        calls.append((pulse.name, gamma))
        return derive_quantities(pulse, gamma)

    def counting(est):
        def wrapped(d, *k):
            estimates.append((est.__name__, d.pulse.name, d.gamma, *k))
            return est(d, *k)
        return wrapped

    monkeypatch.setattr(experiments, "derive_quantities", counted)
    monkeypatch.setattr(subtraction, "derive_quantities", counted)
    for est in (p_fail_k1, p_fail_k2, f_sub_single, f_sub_double):
        monkeypatch.setattr(experiments, est.__name__, counting(est))
    cfg = {"pulses": ["square", "bump"], "k_list": [1, 2, 3],
           "gamma_grid": [50.0, 4000.0], "grid_points": 257}
    summary = experiments.run_subtraction(cfg, str(tmp_path))
    # the summary's gamma = 4000 square values reuse that row's derivation
    # and its estimates: each estimator runs once per derivation and k
    assert sorted(calls) == sorted(
        (p, g) for p in ("square", "bump") for g in (50.0, 4000.0))
    assert sorted(estimates) == sorted(
        e for p, g in calls
        for e in [("p_fail_k1", p, g), ("p_fail_k2", p, g)]
        + [("f_sub_single", p, g, k) for k in (1, 2, 3)]
        + [("f_sub_double", p, g, k) for k in (2, 3)])
    sq = PulseShape.square(257)
    d = derive_quantities(sq, 4000.0)
    assert summary["p_fail_k2"] == p_fail_k2(d)
    assert summary["infidelity_k2"] == 1 - f_sub_single(d, 2)
    # a grid without the gamma = 4000 row derives nothing more, and its
    # summary's estimates are null
    calls.clear()
    summary = experiments.run_subtraction(dict(cfg, gamma_grid=[50.0]),
                                          str(tmp_path))
    assert sorted(calls) == [("bump", 50.0), ("square", 50.0)]
    for key in ("p_fail_k1", "p_fail_k2", "infidelity_k1", "infidelity_k2"):
        assert summary[key] is None, key
    # k = 1 and 2 are estimated for the summary's row alone when k_list
    # lacks them, and p_fail_k2 for no other row
    estimates.clear()
    summary = experiments.run_subtraction(
        dict(cfg, pulses=["square"], k_list=[3]), str(tmp_path))
    assert sorted(estimates) == sorted(
        [("p_fail_k1", "square", g) for g in (50.0, 4000.0)]
        + [("f_sub_single", "square", g, 3) for g in (50.0, 4000.0)]
        + [("f_sub_double", "square", g, 3) for g in (50.0, 4000.0)]
        + [("p_fail_k2", "square", 4000.0),
           ("f_sub_single", "square", 4000.0, 1),
           ("f_sub_single", "square", 4000.0, 2)])
    assert summary["p_fail_k2"] == p_fail_k2(d)
    assert summary["infidelity_k1"] == 1 - f_sub_single(d, 1)


def test_import_leaves_scipy_quadratures_unloaded():
    # neither import timebin nor building both pulses, deriving, every
    # estimator, ode_residual and norm_defect loads scipy.integrate or
    # scipy.signal
    code = """if True:
        import sys, timebin
        def loaded():
            print(sorted(m for m in sys.modules
                         if m in ('scipy.integrate', 'scipy.signal')))
        loaded()
        from timebin.subtraction import (PulseShape, derive_quantities,
            f_sub_double, f_sub_single, p_fail_k1, p_fail_k2)
        for pulse in (PulseShape.square(17), PulseShape.bump(17)):
            d = derive_quantities(pulse, 100.0)
            p_fail_k1(d), p_fail_k2(d), f_sub_single(d, 2), f_sub_double(d, 2)
            d.ode_residual(), pulse.norm_defect()
        loaded()
    """
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.split() == ["[]", "[]"]


# a length of either parity, a seed for the samples, their scale and a step
@settings(max_examples=200)
@given(st.integers(3, 2049), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-8, 1.0, 1e6]), st.floats(1e-6, 1.0))
@example(3, 0, 1.0, 0.5)
@example(4, 0, 1.0, 0.5)
@example(2048, 1, 1.0, 1 / 2047)
@example(2049, 1, 1.0, 1 / 2048)
def test_simpson_rules_are_scipys(size, seed, scale, dx):
    # the NumPy rules keep scipy's uniform-grid arithmetic: equal to the
    # last bit, for odd and even sample counts alike
    from scipy.integrate import cumulative_simpson, simpson
    y = scale * np.random.default_rng(seed).standard_normal(size)
    assert subtraction._simpson(y, dx) == simpson(y, dx=dx)
    assert np.array_equal(subtraction._cumulative_simpson(y, dx),
                          cumulative_simpson(y, dx=dx, initial=0.0))


def test_even_sample_count_reaches_the_estimators():
    # 100 grid points at gamma <= 6 are never refined, so the estimators
    # integrate 100 samples: Simpson's even-count rule, scipy's to the bit
    from scipy.integrate import simpson
    d = derive_quantities(PulseShape.square(100), 5.0)
    assert d.grid.size == 100
    want = simpson((d.u - d.u_tilde) ** 2, dx=d.h) + d.u_tilde[-1] ** 2 / 20.0
    assert p_fail_k1(d) == want
    assert f_sub_single(d, 1) == simpson(d.u_tilde * d.u, dx=d.h) ** 2


def test_derivation_holds_grid_sized_arrays_it_owns():
    # no field is a view of the finer march grids: each owns its data, and
    # together they hold 6 arrays of n+1 floats and 3 of 2n+1
    d = derive_quantities(PulseShape.square(257), 4000.0)
    n = subtraction.refined_intervals(257, 4000.0)
    assert d.grid.size == n + 1 == 65537
    arrays = {f.name: getattr(d, f.name) for f in dataclasses.fields(d)
              if isinstance(getattr(d, f.name), np.ndarray)}
    assert len(arrays) == 9
    for name, a in arrays.items():
        assert a.flags.owndata and a.flags.c_contiguous, name
    assert sum(a.nbytes for a in arrays.values()) <= 8 * (
        6 * (n + 1) + 3 * (2 * n + 1))


def test_refined_grid_is_bounded():
    # the finest axis 8n+1 may reach MAX_FINE_POINTS and no further: the
    # default 4097-point grid takes gamma = 2^16 (n = 2^20), not 70,000
    assert subtraction.refined_intervals(4097, 65536.0) == 2**20
    assert 8 * 2**20 + 1 == subtraction.MAX_FINE_POINTS
    for grid_points, gamma in ((4097, 7e4), (4097, 1e7), (4097, 1e308),
                               (1000000001, 1.0)):
        with pytest.raises(ValueError, match="finest axis"):
            subtraction.refined_intervals(grid_points, gamma)


def _rk4_loop(a, h, f, y0):
    """The plain reference: one classical RK4 step at a time, the forcing
    taken from f's nodes and midpoints."""
    y = [y0]
    for n in range((len(f) - 1) // 2):
        f0, fm, f1 = f[2 * n], f[2 * n + 1], f[2 * n + 2]
        k1 = a * y[-1] + f0
        k2 = a * (y[-1] + h / 2 * k1) + fm
        k3 = a * (y[-1] + h / 2 * k2) + fm
        k4 = a * (y[-1] + h * k3) + f1
        y.append(y[-1] + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(y)


@pytest.mark.parametrize("ah", [-1 / 32, -1 / 8, -0.5])
@pytest.mark.parametrize("y0", [0.0, -0.7])
def test_rk4_march_matches_the_step_by_step_loop(ah, y0):
    n = 400
    h = 1.0 / n
    f = np.random.default_rng(3).uniform(-1.0, 1.0, 2 * n + 1)
    want = _rk4_loop(ah / h, h, f, y0)
    got = subtraction._rk4_filter(ah / h, h, f, y0)
    assert got.shape == want.shape and got[0] == y0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("block", [2, 3, 7, 400, 401])
def test_blocked_march_is_the_one_solve(monkeypatch, block):
    # blocks starting at the last solved row of the one before give the
    # one-block march to the last bit, whatever the block length
    n = 400
    f = np.random.default_rng(5).uniform(-1.0, 1.0, 2 * n + 1)
    whole = subtraction._rk4_filter(-20.0, 1.0 / n, f, -0.3)
    monkeypatch.setattr(subtraction, "MARCH_BLOCK", block)
    assert np.array_equal(subtraction._rk4_filter(-20.0, 1.0 / n, f, -0.3),
                          whole)
