"""Independent references the benchmark checks `timebin` outputs against.

Nothing here calls `timebin`: the one-photon step unitary is a product of
2x2 rotations, three-photon amplitudes of free bosons are permanents of
that unitary, and the square-pulse subtraction figures are closed forms
derived by hand from u(t) = 1 on [0, 1].
"""

from __future__ import annotations

import math

import numpy as np


def one_photon_step(n_sites, hops):
    """Single-particle unitary of one hopping step.

    hops: (i, j, theta, phi) in application order.  Each beamsplitter is
    exp(-i theta (e^{i phi} |j><i| + e^{-i phi} |i><j|)), a 2x2 rotation
    cos(theta) 1 - i sin(theta) (...) on the modes i and j.
    """
    g = np.eye(n_sites, dtype=complex)
    for i, j, theta, phi in hops:
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([
            [c, -1j * s * np.exp(-1j * phi)],
            [-1j * s * np.exp(1j * phi), c],
        ])
        rows = g[[i, j], :]
        g[[i, j], :] = rot @ rows
    return g


def free_boson_amplitudes(g, occupations, in_modes):
    """<n|G^{(3)}|in> for three non-interacting bosons.

    occupations: (dim, n_modes) output occupation vectors, three photons
    each.  in_modes: three distinct input modes.  The amplitude is
    perm(G[out, in]) / sqrt(prod n_out!), with out the output modes listed
    with multiplicity.
    """
    occ = np.asarray(occupations)
    if np.any(occ.sum(axis=1) != 3):
        raise ValueError("three-photon states only")
    if len(set(in_modes)) != 3:
        raise ValueError("input modes must be distinct")
    dim, n_modes = occ.shape
    # row r lists its occupied modes with multiplicity, three per row
    out = np.repeat(np.tile(np.arange(n_modes), dim), occ.ravel()).reshape(dim, 3)
    m = [[g[out[:, r], col] for col in in_modes] for r in range(3)]
    perm = (
        m[0][0] * (m[1][1] * m[2][2] + m[1][2] * m[2][1])
        + m[0][1] * (m[1][0] * m[2][2] + m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] + m[1][1] * m[2][0])
    )
    factorial = np.array([1.0, 1.0, 2.0, 6.0])
    return perm / np.sqrt(np.prod(factorial[occ], axis=1))


def square_p_fail_k1(gamma):
    """int_0^inf |u - u~|^2 for u = 1 on [0, 1]:
    u~ = 1 - e^{-2 gamma t} inside, so the body gives (1 - E^2)/(4 gamma),
    the decaying tail u~(1)^2/(4 gamma); together (1 - E)/(2 gamma),
    E = e^{-2 gamma}."""
    return (1.0 - math.exp(-2.0 * gamma)) / (2.0 * gamma)


def square_infidelity(gamma, k):
    """1 - F_sub for single-layer subtraction of a square pulse.

    k = 1: F = (int_0^1 u~)^2 = (1 - a)^2, a = (1 - E)/(2 gamma).
    k = 2: F = (2 int_0^1 u~ (1 - t))^2 = (1 - 1/gamma + (1 - E)/(2 gamma^2))^2.
    """
    e = math.exp(-2.0 * gamma)
    if k == 1:
        root = 1.0 - (1.0 - e) / (2.0 * gamma)
    elif k == 2:
        root = 1.0 - 1.0 / gamma + (1.0 - e) / (2.0 * gamma**2)
    else:
        raise ValueError("closed forms for k = 1, 2 only")
    return 1.0 - root**2
