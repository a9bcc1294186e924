"""Photon-subtraction failure probabilities and fidelities for pulses
scattering off a waveguide-coupled three-level emitter.

Working objects, all on the unit time bin [0, 1] with coupling gamma in
units of one over the bin length:

    u(t)        input temporal profile, real, nonnegative, L2-normalized
    u~(t)       exponential smoothing of u:  du~/dt = 2 gamma (u - u~)
    G(t)        remaining pulse weight  1 - int_0^t |u|^2
    Theta~(t)   smoothing of (u~ - u) with the same 2 gamma kernel
    w~(t)       smoothing of 4 gamma (u u~ - u Theta~) with a 4 gamma kernel

All smoothed kernels are integrated as their defining linear ODEs with a
fixed-step classical 4th-order scheme; the grid is refined automatically
until 2 gamma h <= 0.5, and forcings are sampled on nested half-grids so the
scheme keeps full order.  Every [1, inf) tail is summed in closed form from
the exponential decay of the smoothed quantities, which avoids truncation
bias at large gamma.

The two-photon failure correlator

    c(t, t2) = sqrt(2) [ (u - u~)(t) (u - u~)(t2)
                         - u~(t)^2 exp(-2 gamma (t2 - t)) ]

follows from u~(t2, t1) = u~(t2) - exp(-2 gamma (t2 - t1)) u~(t1), so its
squared double integral reduces exactly to one-dimensional quadratures plus
one backward exponential-kernel integral.  The same reduction applies to the
two-layer subtraction fidelity.

Every estimator takes one derivation d = derive_quantities(pulse, gamma)
and reads gamma and the arrays from it alone: no estimator evaluates the
pulse or marches a kernel again, and one derivation serves every estimate
at its (pulse, gamma).  Every grid is uniform, so each quadrature passes
scipy's Simpson rules the step (dx) rather than the abscissae, and each
kernel march is one unit lower bidiagonal solve (LAPACK dtbtrs).
scipy.integrate is imported where used, to keep it out of
``import timebin``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PulseShape",
    "SubtractionDerived",
    "derive_quantities",
    "p_fail_k1",
    "p_fail_k2",
    "f_sub_single",
    "f_sub_double",
    "gate_infidelity",
    "closed_form_infidelity_square",
]

DEFAULT_GRID_POINTS = 4097


def _bump_raw(t):
    t = np.asarray(t, dtype=float)
    d = 0.25 - (t - 0.5) ** 2
    out = np.zeros_like(t)
    inside = d > 0
    out[inside] = np.exp(-0.25 / d[inside])
    return out


@dataclass
class PulseShape:
    """Normalized temporal profile on [0, 1], sampled on a uniform grid;
    func evaluates it at any t."""

    name: str
    grid: np.ndarray
    samples: np.ndarray
    func: callable = field(repr=False)

    @classmethod
    def square(cls, grid_points: int = DEFAULT_GRID_POINTS) -> "PulseShape":
        grid = np.linspace(0.0, 1.0, grid_points)
        f = lambda t: np.ones_like(np.asarray(t, dtype=float))
        return cls("square", grid, f(grid), func=f)

    @classmethod
    def bump(cls, grid_points: int = DEFAULT_GRID_POINTS) -> "PulseShape":
        from scipy.integrate import quad
        norm2, _ = quad(lambda t: _bump_raw(t) ** 2, 0.0, 1.0, epsabs=1e-14)
        c = 1.0 / np.sqrt(norm2)
        f = lambda t: c * _bump_raw(t)
        grid = np.linspace(0.0, 1.0, grid_points)
        return cls("bump", grid, f(grid), func=f)

    def norm_defect(self) -> float:
        """|1 - int |u|^2| under the composite Simpson rule on the grid."""
        from scipy.integrate import simpson
        h = 1.0 / (self.grid.size - 1)
        return abs(1.0 - simpson(self.samples**2, dx=h))


@dataclass
class SubtractionDerived:
    """u and its smoothed companions on a (possibly refined) uniform grid,
    plus u, u~ and G on the half-step grid that the backward kernel
    marches take their midpoint forcings from."""

    pulse: PulseShape
    gamma: float
    grid: np.ndarray
    u: np.ndarray
    u_tilde: np.ndarray
    G: np.ndarray
    theta_tilde: np.ndarray
    w_tilde: np.ndarray
    u_half: np.ndarray
    u_tilde_half: np.ndarray
    G_half: np.ndarray

    @property
    def h(self) -> float:
        """Step of the uniform grid."""
        return 1.0 / (self.grid.size - 1)

    def ode_residual(self) -> float:
        """Max defect of the integrated ODE
        u~(t) = 2 gamma int_0^t (u - u~), which sidesteps the finite-
        difference noise a pointwise derivative check would pick up inside
        the boundary layer."""
        from scipy.integrate import cumulative_simpson
        rhs = 2.0 * self.gamma * cumulative_simpson(
            self.u - self.u_tilde, dx=self.h, initial=0.0
        )
        return float(np.max(np.abs(self.u_tilde - rhs)))


def _rk4_filter(a: float, h: float, f, y0: float = 0.0):
    """March y' = a y + f with classical RK4 at fixed step h.

    f holds the 2N+1 forcing samples at step h/2: the nodes are f[::2], the
    midpoints f[1::2].  Constant coefficients make the update linear,
    y[n] = R y[n-1] + g[n] with y[0] = y0, so the whole march is one
    forward substitution through a unit lower bidiagonal system of N+1
    rows, its right-hand side (y0, g[1..N]) written once.
    """
    from scipy.linalg.lapack import dtbtrs
    q = a * h
    R = 1.0 + q + q**2 / 2.0 + q**3 / 6.0 + q**4 / 24.0
    w0 = (h / 6.0) * (1.0 + q + q**2 / 2.0 + q**3 / 4.0)
    wm = (h / 6.0) * (4.0 + 2.0 * q + q**2 / 2.0)
    w1 = h / 6.0
    nodes = f[::2]
    rhs = np.empty((nodes.size, 1))
    rhs[0] = y0
    g = rhs[1:, 0]
    np.multiply(w0, nodes[:-1], out=g)
    g += wm * f[1::2]
    g += w1 * nodes[1:]
    # band storage: row 0 the (unit, unread) diagonal, row 1 the -R below it
    band = np.empty((2, nodes.size), order="F")
    band[0] = 1.0
    band[1] = -R
    y, info = dtbtrs(band, rhs, uplo="L", diag="U", overwrite_b=1)
    if info != 0:
        raise RuntimeError(f"dtbtrs failed with info = {info}")
    return y[:, 0]


def _refined_axis(pulse: PulseShape, gamma: float):
    """Base step for the gamma boundary layers.

    The ODE stiffness guard alone would be 2 gamma h <= 0.5; quadratures of
    squared layer quantities decay at rate 4 gamma, so the grid refines to
    2 gamma h <= 1/8, keeping composite Simpson errors below ~1e-5 relative
    even inside the layers.
    """
    n = pulse.grid.size - 1
    h = 1.0 / n
    while 2.0 * gamma * h > 0.125:
        n *= 2
        h = 1.0 / n
    return n


def derive_quantities(pulse: PulseShape, gamma: float) -> SubtractionDerived:
    """u~, G, Theta~, w~ on the stiffness-refined grid, and u, u~, G on
    its half-step grid.

    The three ODE marches run on nested grids (u~ at h/4, Theta~ at h/2,
    w~ at h) so every forcing midpoint is available at full accuracy.  The
    half-step arrays are views of the finer ones, so they cost no memory.
    """
    from scipy.integrate import cumulative_simpson
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = _refined_axis(pulse, gamma)
    # finest axis: step h/8 resolves the midpoints of the h/4 march
    t8 = np.linspace(0.0, 1.0, 8 * n + 1)
    u8 = pulse.func(t8)

    # u~ at step h/4, forcing 2 gamma u
    ut4 = _rk4_filter(-2.0 * gamma, 1.0 / (4 * n), 2.0 * gamma * u8)
    # Theta~ at step h/2, forcing 2 gamma (u~ - u)
    th2 = _rk4_filter(-2.0 * gamma, 1.0 / (2 * n), 2.0 * gamma * (ut4 - u8[::2]))
    # w~ at step h, forcing 4 gamma (u u~ - u Theta~)
    u2 = u8[::4]
    ut2 = ut4[::2]
    w1 = _rk4_filter(-4.0 * gamma, 1.0 / n, 4.0 * gamma * u2 * (ut2 - th2))

    G2 = 1.0 - cumulative_simpson(u2**2, dx=1.0 / (2 * n), initial=0.0)
    return SubtractionDerived(
        pulse=pulse, gamma=gamma, grid=t8[::8], u=u8[::8],
        u_tilde=ut4[::4], G=G2[::2], theta_tilde=th2[::2], w_tilde=w1,
        u_half=u2, u_tilde_half=ut2, G_half=G2,
    )


def p_fail_k1(d: SubtractionDerived) -> float:
    """Single-photon subtraction failure probability
    int_0^inf |u - u~|^2, with the [1, inf) tail summed in closed form."""
    from scipy.integrate import simpson
    diff = d.u - d.u_tilde
    body = simpson(diff**2, dx=d.h)
    tail = d.u_tilde[-1] ** 2 / (4.0 * d.gamma)
    return float(body + tail)


def p_fail_k2(d: SubtractionDerived) -> float:
    """Two-photon subtraction failure probability from the squared
    time-ordered two-photon correlator.

    The correlator c(t, t2) factorizes (module docstring), so the double
    integral over 0 <= t <= t2 becomes

        int_0^1 dt [ D^2 S(t) - 2 D u~^2 J(t) + u~^4 / (4 gamma) ]

    with D = u - u~,  S(t) = int_t^inf D^2,  and
    J(t) = int_t^inf D(t2) e^{-2 gamma (t2 - t)} dt2 integrated backward;
    the integrand vanishes identically for t > 1.
    """
    from scipy.integrate import cumulative_simpson, simpson
    u, ut, gamma, h = d.u, d.u_tilde, d.gamma, d.h
    D = u - ut
    tail1 = ut[-1] ** 2 / (4.0 * gamma)

    cum = cumulative_simpson(D**2, dx=h, initial=0.0)
    S = (cum[-1] - cum) + tail1

    # J by backward march: in s = 1 - t, dJ/ds = -2 gamma J + D(1 - s),
    # forced by D on the half-step grid
    D_half = d.u_half - d.u_tilde_half
    J = _rk4_filter(
        -2.0 * gamma, h, D_half[::-1], y0=-ut[-1] / (4.0 * gamma)
    )[::-1]

    integrand = 2.0 * (
        D**2 * S - 2.0 * D * ut**2 * J + ut**4 / (4.0 * gamma)
    )
    return float(simpson(integrand, dx=h))


def f_sub_single(d: SubtractionDerived, k: int) -> float:
    """Single-layer subtraction fidelity  |k int u~ u G^{k-1}|^2."""
    from scipy.integrate import simpson
    if k < 1:
        raise ValueError("k must be >= 1")
    val = k * simpson(d.u_tilde * d.u * d.G ** (k - 1), dx=d.h)
    return float(val**2)


def f_sub_double(d: SubtractionDerived, k: int) -> float:
    """Two-layer subtraction fidelity.

    |k(k-1) intint_{t1<=t2} [u~(t1) u~(t2,t1) + w~(t1) e^{-2g(t2-t1)} / 2]
    u(t1) u(t2) G(t2)^{k-2}|^2, reduced to 1D with the same kernel identity
    as p_fail_k2.
    """
    from scipy.integrate import cumulative_simpson, simpson
    if k < 2:
        raise ValueError("two-layer fidelity needs k >= 2")
    u, ut, G, wt, h = d.u, d.u_tilde, d.G, d.w_tilde, d.h

    f = u * ut * G ** (k - 2)
    cum = cumulative_simpson(f, dx=h, initial=0.0)
    A = cum[-1] - cum          # int_t^1 u u~ G^{k-2}

    # B(t) = int_t^1 u(t2) G(t2)^{k-2} e^{-2 gamma (t2-t)} dt2, backward
    fb = d.u_half * np.clip(d.G_half, 0.0, None) ** (k - 2)
    B = _rk4_filter(-2.0 * d.gamma, h, fb[::-1])[::-1]

    inner = u * ut * A + u * (0.5 * wt - ut**2) * B
    val = k * (k - 1) * simpson(inner, dx=h)
    return float(val**2)


def gate_infidelity(p_fail: float, dphi: float) -> float:
    """Single-layer gate infidelity 2 p (1 - p) (1 - cos dphi)."""
    if not 0.0 <= p_fail <= 1.0:
        raise ValueError("p_fail must be a probability")
    return 2.0 * p_fail * (1.0 - p_fail) * (1.0 - np.cos(dphi))


def closed_form_infidelity_square(gamma: float, k: int) -> float:
    """Exact square-pulse 1 - F_sub for k = 1, 2 (single layer)."""
    E = np.exp(-2.0 * gamma)
    if k == 1:
        return (1.0 / gamma) * (1.0 - E) * (1.0 - (1.0 - E) / (4.0 * gamma))
    if k == 2:
        return (
            (2.0 / gamma)
            * (1.0 - (1.0 - E) / (2.0 * gamma))
            * (1.0 - 1.0 / (2.0 * gamma) + (1.0 - E) / (4.0 * gamma**2))
        )
    raise ValueError("closed forms available for k = 1, 2 only")
