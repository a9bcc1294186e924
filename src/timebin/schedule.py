"""Compile Trotter hopping steps into time-bin waveguide schedules and
re-enact them as discrete-event simulations.

Bins propagate at unit group velocity, so a bin is identified by its
arrival time at each element; a fiber delay adds a constant to every
arrival time of one waveguide.  All times are exact rationals (Fractions)
on the grid of bin coincidences, and both 1D variants circulate fully
packed trains, so coincidences are compared modulo the train period
(N_x/2) l_x -- the wrap-around coupling is precisely a coincidence with the
neighboring period.

1D layout (0-based sites): even sites ride waveguide 0, odd sites
waveguide 1, one slot per site pair.  even_simple couples everything with
two static beamsplitters; the general variant uses one static and two
gated beamsplitters and works out to the same unitary for even N_x.

2D layout: four waveguides indexed by (x parity, y parity); rows form
coarse clusters with pitch l_y and fine pitch l_x inside.  The x-direction
layers run the 1D general circuit on both waveguide pairs at the fine
pitch, then the y-direction layers repeat it on the coarse clusters.
Gauge phases ride on the beamsplitter windows (per coinciding pair), so
every 2D beamsplitter event is emitted in gated form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, SectorOperator
from .gates import beamsplitter_gate, number_phase_gate

__all__ = [
    "TimeBinLayout",
    "ScheduleEvent",
    "ScheduleError",
    "compile_1d",
    "compile_2d",
    "simulate_schedule",
    "certify_equivalence",
    "serialize_schedule",
]


VARIANTS_1D = ("even_simple", "general")


class ScheduleError(RuntimeError):
    pass


@dataclass
class TimeBinLayout:
    """Waveguide/arrival-time assignment of lattice sites."""

    n_waveguides: int
    bin_assignment: dict          # site -> (waveguide, arrival Fraction)
    period: Fraction              # train period: arrivals compare modulo it

    def sites_on(self, wg: int):
        return [s for s, (w, _) in self.bin_assignment.items() if w == wg]


@dataclass
class ScheduleEvent:
    """One schedule element.

    kind "delay": waveguides = (wg,), length set.
    kind "bs":    waveguides = (wg_a, wg_b), theta/phi set; windows is None
    for a static splitter, else a nonempty tuple of (lo, hi, phi) windows.
    kind "phase": waveguides = (wg,), table set.
    """

    kind: str
    waveguides: tuple
    length: Fraction = None
    theta: float = 0.0
    phi: float = 0.0
    windows: tuple = None
    table: tuple = None


def _pair_phase(phases, a: int, b: int, default: float,
                back: bool = False) -> float:
    """Oriented hop phase for the pair (a, b); reversing flips the sign.
    back=True looks up the hop b -> a first: on a two-site axis the pair
    carries both a forward and a wrap-around edge."""
    if phases is None:
        return default
    if back and (b, a) in phases:
        return -phases[(b, a)]
    if (a, b) in phases:
        return phases[(a, b)]
    if (b, a) in phases:
        return -phases[(b, a)]
    raise KeyError(f"no hopping phase for the pair ({a}, {b})")


def _window(t: Fraction, width: Fraction, phi: float):
    return (t - width / 4, t + width / 4, phi)


def _coincidences(layout, delays, wg_a, wg_b):
    """(site_a, site_b, time) triples with equal arrival, modulo the period."""
    period = layout.period
    arr_a, arr_b = (
        [(s, layout.bin_assignment[s][1] + delays[wg]) for s in layout.sites_on(wg)]
        for wg in (wg_a, wg_b)
    )
    _check_collisions(arr_a, period, wg_a)
    _check_collisions(arr_b, period, wg_b)
    out = []
    for sa, ta in arr_a:
        for sb, tb in arr_b:
            if (ta - tb) % period == 0:
                out.append((sa, sb, ta % period))
    out.sort(key=lambda x: x[2])
    return out


def _check_collisions(arrivals, period, wg):
    seen = {}
    for s, t in arrivals:
        key = t % period
        if key in seen:
            raise ScheduleError(
                f"bins for sites {seen[key]} and {s} collide on waveguide "
                f"{wg} at time {key}"
            )
        seen[key] = s


def compile_1d(N_x: int, l_x, theta: float, variant: str = "even_simple"):
    """Schedule implementing one Trotter hopping step of a periodic chain.

    even_simple: two static beamsplitters with fully packed fiber loops.
    general: static splitter, gated splitter for the interior odd edges,
    and a second gated splitter for the wrap edge, per-edge on-windows
    (N_x = 2 has no interior odd edge, hence no first gated splitter).
    Both need even N_x (the fiber lengths are (N_x/2)-multiples of l_x).
    """
    if N_x < 2 or N_x % 2 != 0:
        raise ValueError(f"{variant} compilation needs even N_x, got {N_x}")
    if variant not in VARIANTS_1D:
        raise ValueError(f"unknown 1D variant {variant!r}")
    l_x = Fraction(l_x)
    if l_x <= 0:
        raise ValueError(f"bin pitch l_x must be positive, got {l_x}")
    assignment = {x: (x % 2, -(x // 2) * l_x) for x in range(N_x)}
    period = Fraction(N_x, 2) * l_x
    layout = TimeBinLayout(2, assignment, period)
    phi = math.pi

    if variant == "even_simple":
        events = [
            ScheduleEvent("bs", (0, 1), theta=theta, phi=phi),
            ScheduleEvent("delay", (0,), length=l_x),
            ScheduleEvent("bs", (0, 1), theta=theta, phi=phi),
            ScheduleEvent("delay", (1,), length=l_x),
        ]
        return layout, events

    # general variant: window the interior odd edges and the wrap edge,
    # both met by waveguide 0's bins after its l_x delay
    events = [
        ScheduleEvent("bs", (0, 1), theta=theta, phi=phi),
        ScheduleEvent("delay", (0,), length=l_x),
    ]
    interior = sorted(
        _window((assignment[x][1] + l_x) % period, l_x, phi)
        for x in range(2, N_x, 2)
    )
    if interior:
        events.append(ScheduleEvent("bs", (0, 1), theta=theta, phi=phi,
                                    windows=tuple(interior)))
    events.append(ScheduleEvent("delay", (1,), length=Fraction(N_x, 2) * l_x))
    t_wrap = (assignment[0][1] + l_x) % period
    events.append(
        ScheduleEvent("bs", (0, 1), theta=theta, phi=phi,
                      windows=(_window(t_wrap, l_x, phi),))
    )
    events.append(
        ScheduleEvent("delay", (0,), length=(Fraction(N_x, 2) - 1) * l_x)
    )
    return layout, events


def compile_2d(N_x: int, N_y: int, l_x, l_y, theta: float, phases=None):
    """Schedule for one Trotter hopping step of a periodic square lattice.

    phases maps oriented site pairs (src, dst) to the hop phase arg(w); a
    missing orientation is looked up reversed with the sign flipped.  Every
    beamsplitter event carries per-window phases since the gauge varies
    from edge to edge.
    """
    if N_x < 2 or N_y < 2 or N_x % 2 or N_y % 2:
        raise ValueError("2D compilation needs even N_x and N_y >= 2")
    l_x = Fraction(l_x)
    if l_x <= 0:
        raise ValueError(f"bin pitch l_x must be positive, got {l_x}")
    l_y = Fraction(l_y)
    if not l_y > Fraction(N_x, 2) * l_x:
        raise ValueError("cluster pitch l_y must exceed the cluster width")
    # waveguide (y parity, x parity); clusters of pitch l_y, bins of l_x
    assignment = {
        x + N_x * y: ((y % 2) * 2 + x % 2, -(y // 2) * l_y - (x // 2) * l_x)
        for y in range(N_y) for x in range(N_x)
    }
    period = Fraction(N_y, 2) * l_y
    layout = TimeBinLayout(4, assignment, period)

    def site(x, y):
        return (x % N_x) + N_x * (y % N_y)

    events = []
    delays = [Fraction(0)] * 4
    # each axis runs the 1D general circuit on both of its waveguide pairs,
    # one pair per parity of the other coordinate: x on the fine bins, then
    # y on the coarse clusters; at(u, v) is the site at u along the axis
    for n, n_other, pitch, wg_pairs, at in (
        (N_x, N_y, l_x, ((0, 1), (2, 3)), site),
        (N_y, N_x, l_y, ((0, 2), (1, 3)), lambda u, v: site(v, u)),
    ):
        # (bonds (u_a, u_b), hop runs u_b -> u_a, delayed side, delay)
        layers = (
            ([(u, u + 1) for u in range(0, n, 2)], False, 0, pitch),
            ([(u, u - 1) for u in range(2, n, 2)], True, 1,
             Fraction(n, 2) * pitch),
            ([(0, n - 1)], True, 0, (Fraction(n, 2) - 1) * pitch),
        )
        for bonds, back, side, length in layers:
            for parity, (wg_a, wg_b) in enumerate(wg_pairs):
                wins = []
                for v in range(parity, n_other, 2):
                    for ua, ub in bonds:
                        sa, sb = at(ua, v), at(ub, v)
                        t = (assignment[sa][1] + delays[wg_a]) % period
                        phi = _pair_phase(phases, sa, sb, math.pi, back)
                        wins.append(_window(t, l_x, phi))
                if wins:        # a two-site axis has no interior odd bond
                    events.append(
                        ScheduleEvent("bs", (wg_a, wg_b), theta=theta,
                                      windows=tuple(sorted(wins)))
                    )
            for pair in wg_pairs:
                events.append(
                    ScheduleEvent("delay", (pair[side],), length=length)
                )
                delays[pair[side]] += length
    return layout, events


def _in_window(t: Fraction, window, period) -> bool:
    lo, hi, _ = window
    return (t - lo) % period <= (hi - lo)


def simulate_schedule(layout: TimeBinLayout, events, basis: FockBasis):
    """Re-enact a schedule on the encoded modes.

    Returns (SectorOperator, firing log); each firing records
    (site_a, site_b, time, theta, phi) in the order the coincidences reach
    the element.  Bins of one waveguide arriving simultaneously at an
    element is a compilation bug and raises ScheduleError.
    """
    delays = [Fraction(0)] * layout.n_waveguides
    u = np.eye(basis.dim, dtype=complex)
    firings = []
    for ev in events:
        if ev.kind == "delay":
            delays[ev.waveguides[0]] += Fraction(ev.length)
        elif ev.kind == "phase":
            for s in layout.sites_on(ev.waveguides[0]):
                u = number_phase_gate(basis, s, ev.table).entries @ u
        elif ev.kind == "bs":
            wg_a, wg_b = ev.waveguides
            for sa, sb, t in _coincidences(layout, delays, wg_a, wg_b):
                if ev.windows is None:
                    theta, phi = ev.theta, ev.phi
                else:
                    hit = [w for w in ev.windows
                           if _in_window(t, w, layout.period)]
                    if not hit:
                        continue
                    theta, phi = ev.theta, hit[0][2]
                u = beamsplitter_gate(basis, sa, sb, theta, phi).entries @ u
                firings.append((sa, sb, t, theta, phi))
        else:
            raise ScheduleError(f"unknown event kind {ev.kind!r}")
    return SectorOperator(basis, sp.csr_matrix(u)), firings


def certify_equivalence(schedule_unitary: np.ndarray,
                        abstract_unitary: np.ndarray,
                        tol: float = 1e-10):
    """(equal, distance, global_phase): distance is the max-norm difference
    after aligning the global phase via the trace inner product."""
    us = np.asarray(schedule_unitary, dtype=complex)
    ua = np.asarray(abstract_unitary, dtype=complex)
    if us.shape != ua.shape:
        raise ValueError("unitary dimensions differ")
    tr = np.trace(ua.conj().T @ us)
    if abs(tr) > 1e-12:
        c = tr / abs(tr)
    else:
        k = np.unravel_index(np.argmax(np.abs(ua)), ua.shape)
        ratio = us[k] / ua[k] if ua[k] != 0 else 1.0
        c = ratio / abs(ratio) if ratio != 0 else 1.0
    distance = float(np.max(np.abs(us - c * ua)))
    return distance < tol, distance, complex(c)


# --- serialization ----------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def serialize_schedule(layout: TimeBinLayout, events) -> str:
    """Line-oriented text form: layout in comments, one event per line."""
    lines = [
        f"# waveguides {layout.n_waveguides}",
        f"# period {layout.period}",
    ]
    for s in sorted(layout.bin_assignment):
        wg, t = layout.bin_assignment[s]
        lines.append(f"# bin {s} {wg} {t}")
    for ev in events:
        if ev.kind == "delay":
            lines.append(f"DELAY {ev.waveguides[0]} {Fraction(ev.length)}")
        elif ev.kind == "bs":
            head = (
                f"BS {ev.waveguides[0]} {ev.waveguides[1]} "
                f"{_fmt(ev.theta)} {_fmt(ev.phi)}"
            )
            if ev.windows is not None:
                wins = " ".join(
                    f"{lo}:{hi}:{_fmt(p)}" for lo, hi, p in ev.windows
                )
                head = f"{head} {wins}"
            lines.append(head)
        elif ev.kind == "phase":
            table = " ".join(_fmt(v) for v in ev.table)
            lines.append(f"PHASE {ev.waveguides[0]} {table}")
    return "\n".join(lines) + "\n"
