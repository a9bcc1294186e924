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
at its (pulse, gamma).  Every grid is uniform, so the quadratures are the
uniform-step Simpson rules below, and each kernel march is a unit lower
bidiagonal solve (LAPACK dtbtrs, block by block).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PulseShape",
    "SubtractionDerived",
    "derive_quantities",
    "refined_intervals",
    "p_fail_k1",
    "p_fail_k2",
    "f_sub_single",
    "f_sub_double",
    "gate_infidelity",
    "closed_form_infidelity_square",
]

DEFAULT_GRID_POINTS = 4097
# Gauss-Legendre nodes for the bump's norm: 2e-15 relative from adaptive
# quadrature
BUMP_NORM_NODES = 128
# rows per bidiagonal solve of a kernel march, which bounds the march's
# band and forcing temporaries
MARCH_BLOCK = 1 << 16
# largest finest axis (8n + 1 points) a derivation builds: 67 MB a float
# array; the default scan's gamma = 10,000 builds 2,097,153
MAX_FINE_POINTS = 2**23 + 1


def _simpson(y, dx: float) -> float:
    """int y over a uniform grid of step dx and >= 3 samples, in the
    arithmetic of scipy's simpson(y, dx=dx): composite Simpson
    over pairs of intervals, and for an even sample count Cartwright's
    correction for the last interval."""
    stop = y.size - 2 if y.size % 2 else y.size - 3
    result = np.sum(y[0:stop:2] + 4.0 * y[1:stop + 1:2] + y[2:stop + 2:2])
    result *= dx / 3.0
    if y.size % 2 == 0:
        h = np.float64(dx)
        alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
        beta = (h**2 + 3.0 * h * h) / (6 * h)
        eta = (1 * h**3) / (6 * h * (h + h))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def _cumulative_simpson(y, dx: float) -> np.ndarray:
    """int_0^t y at every sample of a uniform grid of step dx and >= 3
    samples, in the arithmetic of scipy's cumulative_simpson(y, dx=dx,
    initial=0.0), which integrates each interval along the
    parabola through it and one neighbour.  Of the two formulas scipy
    evaluates over the whole array it keeps one per interval: for each
    pair (x_2m, x_2m+2) the forward one on its first interval, the
    backward one on its second, and with an even sample count the
    backward one on the last interval."""
    n = y.size
    out = np.empty(n)
    out[0] = 0.0
    a, b, c = y[0:n - 2:2], y[1:n - 1:2], y[2::2]
    _parabola(a, b, c, dx, out[1:2 * a.size:2])
    _parabola(c, b, a, dx, out[2::2])
    if n % 2 == 0:
        _parabola(y[-1:], y[-2:-1], y[-3:-2], dx, out[-1:])
    np.cumsum(out[1:], out=out[1:])
    return out


def _parabola(f1, f2, f3, dx: float, out):
    """Write into out dx/3 (5 f1/4 + 2 f2 - f3/4): the integral over the
    interval between x1 and x2 of the parabola through (x1, f1), (x2, f2),
    (x3, f3), for x1, x2, x3 evenly spaced by dx in either direction."""
    np.multiply(f1, 5, out=out)
    out /= 4
    out += 2 * f2
    out -= f3 / 4
    out *= dx / 3


def _bump_raw(t):
    """exp(-1/4 / (1/4 - (t - 1/2)^2)) inside (0, 1), zero outside, in
    one array: the clip to 0 sends the exponent to -inf outside."""
    d = np.array(t, dtype=float)
    d -= 0.5
    np.square(d, out=d)
    np.subtract(0.25, d, out=d)
    np.maximum(d, 0.0, out=d)
    with np.errstate(divide="ignore"):
        np.divide(-0.25, d, out=d)
    return np.exp(d, out=d)


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
        x, w = np.polynomial.legendre.leggauss(BUMP_NORM_NODES)
        norm2 = 0.5 * np.dot(w, _bump_raw(0.5 * (x + 1.0)) ** 2)
        c = 1.0 / np.sqrt(norm2)

        def f(t):
            u = _bump_raw(t)
            u *= c
            return u

        grid = np.linspace(0.0, 1.0, grid_points)
        return cls("bump", grid, f(grid), func=f)

    def norm_defect(self) -> float:
        """|1 - int |u|^2| under the composite Simpson rule on the grid."""
        h = 1.0 / (self.grid.size - 1)
        return abs(1.0 - _simpson(self.samples**2, h))


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
        rhs = 2.0 * self.gamma * _cumulative_simpson(
            self.u - self.u_tilde, self.h
        )
        return float(np.max(np.abs(self.u_tilde - rhs)))


def _rk4_filter(a: float, h: float, f, y0: float = 0.0):
    """March y' = a y + f with classical RK4 at fixed step h.

    f holds the 2N+1 forcing samples at step h/2: the nodes are f[::2], the
    midpoints f[1::2].  Constant coefficients make the update linear,
    y[n] = R y[n-1] + g[n] with y[0] = y0, so the march is a forward
    substitution through a unit lower bidiagonal system of N+1 rows,
    solved in place in its right-hand side (y0, g[1..N]).  It runs in
    blocks of MARCH_BLOCK rows, each starting at the solved last row of the
    one before: every row sees the same arithmetic as in one solve, and
    the band and the forcing temporaries stay block-sized.
    """
    from scipy.linalg.lapack import dtbtrs
    q = a * h
    R = 1.0 + q + q**2 / 2.0 + q**3 / 6.0 + q**4 / 24.0
    w0 = (h / 6.0) * (1.0 + q + q**2 / 2.0 + q**3 / 4.0)
    wm = (h / 6.0) * (4.0 + 2.0 * q + q**2 / 2.0)
    w1 = h / 6.0
    nodes = f[::2]
    y = np.empty(nodes.size)
    y[0] = y0
    # band storage: row 0 the (unit, unread) diagonal, row 1 the -R below it
    band = np.empty((2, min(MARCH_BLOCK, y.size)), order="F")
    band[0] = 1.0
    band[1] = -R
    for start in range(0, y.size - 1, band.shape[1] - 1):
        stop = min(start + band.shape[1], y.size)
        g = y[start + 1:stop]
        np.multiply(w0, nodes[start:stop - 1], out=g)
        g += wm * f[2 * start + 1:2 * stop - 1:2]
        g += w1 * nodes[start + 1:stop]
        _, info = dtbtrs(band[:, :stop - start], y[start:stop], uplo="L",
                         diag="U", overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"dtbtrs failed with info = {info}")
    return y


def refined_intervals(grid_points: int, gamma: float) -> int:
    """Intervals n of the grid the gamma boundary layers need, refined from
    a pulse grid of grid_points samples by doubling.

    The ODE stiffness guard alone would be 2 gamma h <= 0.5; quadratures of
    squared layer quantities decay at rate 4 gamma, so the grid refines to
    2 gamma h <= 1/8, keeping composite Simpson errors below ~1e-5 relative
    even inside the layers.  Raises ValueError when the derivation's finest
    axis, 8n + 1 points, would exceed MAX_FINE_POINTS.
    """
    n = grid_points - 1
    while 2.0 * gamma * (1.0 / n) > 0.125 and 8 * n + 1 <= MAX_FINE_POINTS:
        n *= 2
    if 8 * n + 1 > MAX_FINE_POINTS:
        raise ValueError(
            f"gamma = {gamma:g} on a {grid_points}-point pulse grid needs a "
            f"finest axis of {8 * n + 1} points or more, above "
            f"{MAX_FINE_POINTS}; lower gamma_grid or grid_points")
    return n


def derive_quantities(pulse: PulseShape, gamma: float) -> SubtractionDerived:
    """u~, G, Theta~, w~ on the stiffness-refined grid, and u, u~, G on
    its half-step grid.

    The three ODE marches run on nested grids (u~ at h/4, Theta~ at h/2,
    w~ at h) so every forcing midpoint is available at full accuracy.  The
    derivation keeps contiguous copies of the samples it hands on, and
    drops each finer array once the march that needs it is done, so it
    holds 6 (n+1) + 3 (2n+1) floats.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = refined_intervals(pulse.grid.size, gamma)
    # finest axis: step h/8 resolves the midpoints of the h/4 march
    t8 = np.linspace(0.0, 1.0, 8 * n + 1)
    u8 = pulse.func(t8)
    grid = t8[::8].copy()
    del t8

    # u~ at step h/4, forcing 2 gamma u
    ut4 = _rk4_filter(-2.0 * gamma, 1.0 / (4 * n), 2.0 * gamma * u8)
    # Theta~ at step h/2, forcing 2 gamma (u~ - u)
    th2 = _rk4_filter(-2.0 * gamma, 1.0 / (2 * n), 2.0 * gamma * (ut4 - u8[::2]))
    u_half, u = u8[::4].copy(), u8[::8].copy()
    del u8
    ut_half, u_tilde = ut4[::2].copy(), ut4[::4].copy()
    del ut4
    # w~ at step h, forcing 4 gamma (u u~ - u Theta~)
    w = _rk4_filter(-4.0 * gamma, 1.0 / n, 4.0 * gamma * u_half * (ut_half - th2))
    theta = th2[::2].copy()
    del th2

    G_half = _cumulative_simpson(u_half**2, 1.0 / (2 * n))
    np.subtract(1.0, G_half, out=G_half)
    return SubtractionDerived(
        pulse=pulse, gamma=gamma, grid=grid, u=u, u_tilde=u_tilde,
        G=G_half[::2].copy(), theta_tilde=theta, w_tilde=w,
        u_half=u_half, u_tilde_half=ut_half, G_half=G_half,
    )


def p_fail_k1(d: SubtractionDerived) -> float:
    """Single-photon subtraction failure probability
    int_0^inf |u - u~|^2, with the [1, inf) tail summed in closed form."""
    diff = d.u - d.u_tilde
    body = _simpson(diff**2, d.h)
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
    u, ut, gamma, h = d.u, d.u_tilde, d.gamma, d.h
    D = u - ut
    tail1 = ut[-1] ** 2 / (4.0 * gamma)

    cum = _cumulative_simpson(D**2, h)
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
    return float(_simpson(integrand, h))


def f_sub_single(d: SubtractionDerived, k: int) -> float:
    """Single-layer subtraction fidelity  |k int u~ u G^{k-1}|^2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    val = k * _simpson(d.u_tilde * d.u * d.G ** (k - 1), d.h)
    return float(val**2)


def f_sub_double(d: SubtractionDerived, k: int) -> float:
    """Two-layer subtraction fidelity.

    |k(k-1) intint_{t1<=t2} [u~(t1) u~(t2,t1) + w~(t1) e^{-2g(t2-t1)} / 2]
    u(t1) u(t2) G(t2)^{k-2}|^2, reduced to 1D with the same kernel identity
    as p_fail_k2.
    """
    if k < 2:
        raise ValueError("two-layer fidelity needs k >= 2")
    u, ut, G, wt, h = d.u, d.u_tilde, d.G, d.w_tilde, d.h

    f = u * ut * G ** (k - 2)
    cum = _cumulative_simpson(f, h)
    A = cum[-1] - cum          # int_t^1 u u~ G^{k-2}

    # B(t) = int_t^1 u(t2) G(t2)^{k-2} e^{-2 gamma (t2-t)} dt2, backward
    fb = d.u_half * np.clip(d.G_half, 0.0, None) ** (k - 2)
    B = _rk4_filter(-2.0 * d.gamma, h, fb[::-1])[::-1]

    inner = u * ut * A + u * (0.5 * wt - ut**2) * B
    val = k * (k - 1) * _simpson(inner, h)
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
