import cmath
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timebin.fock import enumerate_basis
from timebin.gates import number_phase_gate
from timebin.lattice import build_bose_hubbard, build_fqh, step_operator
from timebin.schedule import (
    ScheduleError,
    ScheduleEvent,
    TimeBinLayout,
    certify_equivalence,
    compile_1d,
    compile_2d,
    serialize_schedule,
    simulate_schedule,
)

GOLDEN = Path(__file__).parent / "golden"


# the round-trip checks' reader of the text that serialize_schedule writes
def parse_schedule(text: str):
    """Inverse of serialize_schedule.  A text without its waveguides or
    period line, or with a line it cannot read, raises ScheduleError."""
    n_wg = None
    period = None
    assignment = {}
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if line.startswith("#"):
                if parts[1] == "waveguides":
                    n_wg = int(parts[2])
                elif parts[1] == "period":
                    period = Fraction(parts[2])
                elif parts[1] == "bin":
                    assignment[int(parts[2])] = (int(parts[3]),
                                                 Fraction(parts[4]))
                continue
            if parts[0] == "DELAY":
                events.append(
                    ScheduleEvent("delay", (int(parts[1]),),
                                  length=Fraction(parts[2]))
                )
            elif parts[0] == "BS":
                wg = (int(parts[1]), int(parts[2]))
                theta, phi = float(parts[3]), float(parts[4])
                wins = None
                if len(parts) > 5:
                    wins = tuple(
                        (Fraction(w.split(":")[0]), Fraction(w.split(":")[1]),
                         float(w.split(":")[2]))
                        for w in parts[5:]
                    )
                events.append(
                    ScheduleEvent("bs", wg, theta=theta, phi=phi, windows=wins)
                )
            elif parts[0] == "PHASE":
                events.append(
                    ScheduleEvent("phase", (int(parts[1]),),
                                  table=tuple(float(v) for v in parts[2:]))
                )
            else:
                raise ValueError(parts[0])
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise ScheduleError(f"cannot parse schedule line: {line}") from exc
    if n_wg is None:
        raise ScheduleError("schedule has no waveguides line")
    if period is None:
        raise ScheduleError("schedule has no period line")
    return TimeBinLayout(n_wg, assignment, period), events


def test_structural_counts_even_simple():
    layout, events = compile_1d(4, 1, 0.2)
    kinds = [e.kind for e in events]
    assert kinds.count("bs") == 2
    assert kinds.count("delay") == 2
    assert layout.period == Fraction(2)
    # 0-based even sites ride waveguide 0
    assert layout.bin_assignment[0][0] == 0
    assert layout.bin_assignment[1][0] == 1


def test_bin_alignment_after_first_delay():
    # after the l_x delay, site 2 meets site 1 (1-based: x=3 meets x=2)
    layout, events = compile_1d(6, 1, 0.3, variant="general")
    basis = enumerate_basis(6, {1})
    _, firings = simulate_schedule(layout, events, basis)
    second_group = [tuple(sorted(f[:2])) for f in firings[3:5]]
    assert (1, 2) in second_group


def test_empty_schedule_is_identity():
    layout, _ = compile_1d(4, 1, 0.2)
    basis = enumerate_basis(4, {1})
    op, firings = simulate_schedule(layout, [], basis)
    assert firings == []
    assert np.allclose(op.to_dense(), np.eye(basis.dim))


def test_zero_theta_compiles_to_identity():
    layout, events = compile_1d(8, 1, 0.0)
    basis = enumerate_basis(8, {1})
    op, _ = simulate_schedule(layout, events, basis)
    assert np.max(np.abs(op.to_dense() - np.eye(basis.dim))) < 1e-14


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("variant", ["even_simple", "general"])
def test_1d_equivalence(n, variant):
    model = build_bose_hubbard(n, 1.0, 0.0, boundary="periodic")
    dt = 0.2
    basis = enumerate_basis(n, {1})
    layout, events = compile_1d(n, 1, dt, variant=variant)
    op, firings = simulate_schedule(layout, events, basis)
    equal, dist, _ = certify_equivalence(op.to_dense(), step_operator(model, dt, basis))
    assert equal and dist < 1e-10
    fired = sorted(tuple(sorted(f[:2])) for f in firings)
    edges = sorted(tuple(sorted(e[:2])) for e in model.edges)
    assert fired == edges


def test_1d_variants_agree_sector2():
    n, dt = 6, 0.2
    basis = enumerate_basis(n, {2})
    ops = []
    for variant in ("even_simple", "general"):
        layout, events = compile_1d(n, 1, dt, variant=variant)
        op, _ = simulate_schedule(layout, events, basis)
        ops.append(op.to_dense())
    equal, dist, _ = certify_equivalence(*ops)
    assert equal and dist < 1e-10


def test_odd_chain_rejected():
    with pytest.raises(ValueError):
        compile_1d(5, 1, 0.2)
    with pytest.raises(ValueError):
        compile_1d(5, 1, 0.2, variant="general")


def test_2d_equivalence_with_gauge():
    model = build_fqh(4, 4, 1.0, 0.0, 0.25)
    dt = 0.25
    phases = {(a, b): cmath.phase(w) for a, b, w in model.edges}
    layout, events = compile_2d(4, 4, 1, 3, dt, phases=phases)
    assert layout.n_waveguides == 4
    assert all(len(layout.sites_on(w)) == 4 for w in range(4))
    basis = enumerate_basis(16, {1})
    op, firings = simulate_schedule(layout, events, basis)
    equal, dist, _ = certify_equivalence(op.to_dense(), step_operator(model, dt, basis))
    assert equal and dist < 1e-10
    # every lattice edge fires exactly once
    fired = sorted(tuple(sorted(f[:2])) for f in firings)
    edges = sorted(tuple(sorted(e[:2])) for e in model.edges)
    assert fired == edges


@settings(max_examples=15)
@given(
    N_x=st.sampled_from([2, 4, 6]), N_y=st.sampled_from([2, 4, 6]),
    l_x=st.sampled_from([1, 2]), extra=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_2d_random_sizes_certify(N_x, N_y, l_x, extra, data):
    # any flux the torus admits: an integer number k of quanta in total
    k = data.draw(st.integers(0, N_x * N_y - 1))
    model = build_fqh(N_x, N_y, 1.0, 0.0, k / (N_x * N_y))
    phases = {(a, b): cmath.phase(w) for a, b, w in model.edges}
    dt = 0.25
    layout, events = compile_2d(N_x, N_y, l_x, N_x // 2 * l_x + extra, dt,
                                phases=phases)
    basis = enumerate_basis(model.n_sites, {1})
    op, _ = simulate_schedule(layout, events, basis)
    equal, dist, _ = certify_equivalence(op.to_dense(),
                                         step_operator(model, dt, basis))
    assert equal and dist < 1e-10


@pytest.mark.parametrize("N_x,N_y", [(2, 2), (2, 4), (4, 2)])
def test_2d_two_site_axis_with_flux(N_x, N_y):
    # a two-site axis joins its pair by a forward and a wrap-around edge;
    # the wrap layer must take the wrap edge's phase
    model = build_fqh(N_x, N_y, 1.0, 0.0, 0.25)
    phases = {(a, b): cmath.phase(w) for a, b, w in model.edges}
    layout, events = compile_2d(N_x, N_y, 1, N_x // 2 + 1, 0.25,
                                phases=phases)
    basis = enumerate_basis(model.n_sites, {1})
    op, _ = simulate_schedule(layout, events, basis)
    equal, dist, _ = certify_equivalence(op.to_dense(),
                                         step_operator(model, 0.25, basis))
    assert equal and dist < 1e-10


@settings(max_examples=30)
@given(data=st.data(), two_d=st.booleans())
def test_serialize_parse_roundtrip_certifies(data, two_d):
    # the text form restores the layout and every event exactly, two-site
    # axes included, and the parsed schedule still certifies
    dt = data.draw(st.sampled_from([0.2, 0.25, 0.3]))
    if two_d:
        N_x = data.draw(st.sampled_from([2, 4, 6]))
        N_y = data.draw(st.sampled_from([2, 4, 6]))
        l_x = data.draw(st.sampled_from([1, 2]))
        k = data.draw(st.integers(0, N_x * N_y - 1))
        model = build_fqh(N_x, N_y, 1.0, 0.0, k / (N_x * N_y))
        phases = {(a, b): cmath.phase(w) for a, b, w in model.edges}
        layout, events = compile_2d(N_x, N_y, l_x, N_x // 2 * l_x + 1, dt,
                                    phases=phases)
    else:
        N_x = data.draw(st.sampled_from([2, 4, 6, 8]))
        l_x = data.draw(st.sampled_from([1, 2, Fraction(1, 2)]))
        variant = data.draw(st.sampled_from(["even_simple", "general"]))
        model = build_bose_hubbard(N_x, 1.0, 0.0, boundary="periodic")
        layout, events = compile_1d(N_x, l_x, dt, variant=variant)
    parsed = parse_schedule(serialize_schedule(layout, events))
    assert parsed == (layout, events)
    basis = enumerate_basis(model.n_sites, {1})
    op, _ = simulate_schedule(*parsed, basis)
    equal, dist, _ = certify_equivalence(op.to_dense(),
                                         step_operator(model, dt, basis))
    assert equal and dist < 1e-10


def test_nonpositive_pitch_rejected():
    for l_x in (0, -1):
        with pytest.raises(ValueError, match="l_x"):
            compile_1d(4, l_x, 0.2)
        with pytest.raises(ValueError, match="l_x"):
            compile_2d(4, 4, l_x, 3, 0.2)


def test_2d_geometry_constraint():
    with pytest.raises(ValueError):
        compile_2d(4, 4, 1, 2, 0.25)  # l_y == cluster width
    with pytest.raises(ValueError):
        compile_2d(3, 4, 1, 3, 0.25)


def test_within_group_order_is_immaterial():
    # firing order inside a disjoint group is arrival order; reversing it
    # leaves the unitary unchanged
    n, dt = 8, 0.2
    basis = enumerate_basis(n, {2})
    layout, events = compile_1d(n, 1, dt)
    op, firings = simulate_schedule(layout, events, basis)
    from timebin.gates import beamsplitter_gate

    u = np.eye(basis.dim, dtype=complex)
    first = firings[: n // 2][::-1]
    second = firings[n // 2:][::-1]
    for sa, sb, _, theta, phi in first + second:
        u = beamsplitter_gate(basis, sa, sb, theta, phi).entries @ u
    assert np.max(np.abs(u - op.to_dense())) < 1e-12


def test_dropped_wrap_link_detected():
    n, dt = 8, 0.2
    model = build_bose_hubbard(n, 1.0, 0.0, boundary="periodic")
    basis = enumerate_basis(n, {1})
    layout, events = compile_1d(n, 1, dt, variant="general")
    # drop the second gated splitter (the wrap edge)
    broken = [e for i, e in enumerate(events) if i != 4]
    assert events[4].kind == "bs" and events[4].windows is not None
    op, firings = simulate_schedule(layout, broken, basis)
    equal, dist, _ = certify_equivalence(op.to_dense(), step_operator(model, dt, basis))
    assert not equal
    assert dist > 0.1
    assert len(firings) == n - 1


def test_same_waveguide_collision_reported():
    layout, events = compile_1d(4, 1, 0.2)
    layout.bin_assignment[2] = (0, layout.bin_assignment[0][1])
    with pytest.raises(ScheduleError, match="collide"):
        simulate_schedule(layout, events, enumerate_basis(4, {1}))


def test_phase_elements():
    layout, _ = compile_1d(4, 1, 0.2)
    table = (0.0, 0.0, -2.0)
    events = [
        ScheduleEvent("phase", (0,), table=table),
        ScheduleEvent("phase", (1,), table=table),
    ]
    basis = enumerate_basis(4, {0, 1, 2})
    op, _ = simulate_schedule(layout, events, basis)
    expected = np.eye(basis.dim, dtype=complex)
    for s in range(4):
        expected = number_phase_gate(basis, s, table).entries @ expected
    assert np.max(np.abs(op.to_dense() - expected)) < 1e-14


def test_certify_trivial_and_mismatch():
    u = np.diag(np.exp(1j * np.array([0.1, 0.4, -0.2])))
    equal, dist, c = certify_equivalence(u, u)
    assert equal and dist < 1e-14 and c == pytest.approx(1.0)
    equal, dist, c = certify_equivalence(np.exp(0.3j) * u, u)
    assert equal and c == pytest.approx(np.exp(0.3j), abs=1e-12)
    with pytest.raises(ValueError):
        certify_equivalence(u, np.eye(2))


def test_serialization_roundtrip_and_golden():
    layout, events = compile_1d(8, 1, 0.2)
    text = serialize_schedule(layout, events)
    golden = (GOLDEN / "bh8_even_simple.sched").read_text()
    assert text == golden

    layout2, events2 = parse_schedule(text)
    assert layout2.period == layout.period
    assert layout2.bin_assignment == layout.bin_assignment
    basis = enumerate_basis(8, {1})
    u1, _ = simulate_schedule(layout, events, basis)
    u2, _ = simulate_schedule(layout2, events2, basis)
    assert np.max(np.abs(u1.to_dense() - u2.to_dense())) == 0.0
    # every layout circulates, so a text without its period is refused
    with pytest.raises(ScheduleError):
        parse_schedule(text.replace("# period 4\n", ""))


def test_2d_golden():
    model = build_fqh(4, 4, 1.0, 0.0, 0.25)
    phases = {(a, b): cmath.phase(w) for a, b, w in model.edges}
    layout, events = compile_2d(4, 4, 1, 3, 0.25, phases=phases)
    golden = (GOLDEN / "fqh4x4_square.sched").read_text()
    assert serialize_schedule(layout, events) == golden


def test_serialization_roundtrip_2d():
    model = build_fqh(4, 4, 1.0, 0.0, 0.25)
    phases = {(a, b): cmath.phase(w) for a, b, w in model.edges}
    layout, events = compile_2d(4, 4, 1, 3, 0.25, phases=phases)
    text = serialize_schedule(layout, events)
    layout2, events2 = parse_schedule(text)
    basis = enumerate_basis(16, {1})
    u1, _ = simulate_schedule(layout, events, basis)
    u2, _ = simulate_schedule(layout2, events2, basis)
    equal, dist, _ = certify_equivalence(u2.to_dense(), u1.to_dense())
    assert equal and dist < 1e-12
