"""The six benchmark experiments behind the command-line runner.

Every experiment takes a flat config dict (validated upstream), writes CSV
and JSON artifacts into an output directory, and returns a summary dict.
All outputs are deterministic: no clocks, no random numbers, floats
serialized with 17 significant digits.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import functools
import glob
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy

from . import __version__
from .dynamics import (
    CirculationChannel,
    DriveDissParams,
    IncoherentProtocol,
    fixed_point,
    steady_state_observables,
)
from .fock import enumerate_basis, product_fock_state
from .gates import gate_matrix
from .lattice import (
    build_bose_hubbard,
    build_fqh,
    onsite_phase_table,
    trotter_step_sequence,
)
from .schedule import (
    certify_equivalence,
    compile_1d,
    compile_2d,
    serialize_schedule,
    simulate_schedule,
)
from .spectral import (
    analytic_ground_state,
    distinct_energy_count,
    effective_energies,
    ground_space,
    overlap_optimize,
    step_unitary,
)
from .subtraction import (
    PulseShape,
    closed_form_infidelity_square,
    f_sub_double,
    f_sub_single,
    gate_infidelity,
    p_fail_k1,
    p_fail_k2,
)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v
                              for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(outdir, experiment, config):
    write_json(
        os.path.join(outdir, "manifest.json"),
        {"experiment": experiment, "config": config, "version": __version__},
    )


def _fqh_model(cfg):
    return build_fqh(
        cfg["N_x"], cfg["N_y"], cfg["J"], cfg["U"], cfg["phi_plaq"],
        boundary=cfg.get("boundary", "periodic"),
    )


# --- quench ------------------------------------------------------------------


def two_photon_correlator(basis, amplitudes) -> np.ndarray:
    """C[i, j] = <b_i+ b_j+ b_j b_i> = <n_i n_j> - delta_ij <n_i>."""
    occ = basis.occupations()
    w = np.abs(np.asarray(amplitudes)) ** 2
    n_sites = basis.n_modes
    c = np.zeros((n_sites, n_sites))
    for i in range(n_sites):
        for j in range(n_sites):
            val = occ[:, i] * occ[:, j] - (occ[:, i] if i == j else 0)
            c[i, j] = float(np.dot(w, val))
    return c


def side_masses(c: np.ndarray) -> tuple:
    """Same-half vs opposite-half correlator mass on the ring."""
    n = c.shape[0]
    left = np.arange(n) < n // 2
    same = float(c[np.ix_(left, left)].sum() + c[np.ix_(~left, ~left)].sum())
    opposite = float(c[np.ix_(left, ~left)].sum() + c[np.ix_(~left, left)].sum())
    return same, opposite


def run_quench(cfg, outdir):
    n_x = cfg["N_x"]
    model = build_bose_hubbard(n_x, cfg["J"], cfg["U"],
                               boundary=cfg.get("boundary", "periodic"))
    dt = cfg["delta_t"]
    n_steps = int(round(cfg["total_time"] / dt))
    basis = enumerate_basis(n_x, {2})
    step = np.eye(basis.dim, dtype=complex)
    for d in trotter_step_sequence(model, dt, n_max=2):
        step = gate_matrix(d, basis).entries @ step
    init = [0] * n_x
    init[n_x // 2 - 1] = init[n_x // 2] = 1
    psi = product_fock_state(basis, init).amplitudes

    rows = []
    correlators = []
    for s in range(n_steps + 1):
        c = two_photon_correlator(basis, psi)
        correlators.append(c)
        for i in range(n_x):
            for j in range(n_x):
                rows.append((s, s * dt, i, j, c[i, j]))
        if s < n_steps:
            psi = step @ psi
    write_csv(
        os.path.join(outdir, "quench_correlator.csv"),
        ["step", "time", "i", "j", "correlator"], rows,
    )
    same, opposite = side_masses(correlators[-1])
    # wavefronts reach the antipode of the ring at t* = N_x/(4J); past that
    # they wrap and eventually revive at the starting bond, which scrambles
    # the side bookkeeping (on the 8-ring the revival lands exactly at 4/J)
    v_max = 2.0 * cfg["J"]
    s_star = min(n_steps, int(round(n_x / (2.0 * v_max) / dt)))
    same_star, opposite_star = side_masses(correlators[s_star])
    summary = {
        "N_x": n_x, "U": cfg["U"], "delta_t": dt, "n_steps": n_steps,
        "final_norm": float(np.linalg.norm(psi)),
        "sum_rule": float(correlators[-1].sum()),
        "same_side_mass": same,
        "opposite_side_mass": opposite,
        "antipodal_time": s_star * dt,
        "same_side_mass_antipodal": same_star,
        "opposite_side_mass_antipodal": opposite_star,
    }
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


def free_boson_correlator(model, dt, n_steps, init_sites) -> np.ndarray:
    """Permanent-based prediction for two noninteracting photons: the
    sector-1 step unitary G gives amplitudes G_ia G_jb + G_ib G_ja."""
    basis1 = enumerate_basis(model.n_sites, {1})
    g = np.eye(basis1.dim, dtype=complex)
    for d in trotter_step_sequence(model, dt, n_max=1):
        g = gate_matrix(d, basis1).entries @ g
    g = np.linalg.matrix_power(g, n_steps)

    def mode_index(site):
        occ = [0] * model.n_sites
        occ[site] = 1
        return basis1.index[tuple(occ)]

    a, b = (mode_index(s) for s in init_sites)
    idx = [mode_index(s) for s in range(model.n_sites)]
    c = np.zeros((model.n_sites, model.n_sites))
    for i in range(model.n_sites):
        for j in range(model.n_sites):
            amp = g[idx[i], a] * g[idx[j], b] + g[idx[i], b] * g[idx[j], a]
            c[i, j] = abs(amp) ** 2
    return c


# --- spectrum ----------------------------------------------------------------


def run_spectrum(cfg, outdir):
    model = _fqh_model(cfg)
    dt = cfg["delta_t"]
    rows = []
    results = {}
    for k in cfg.get("sectors", [1, 2]):
        res = effective_energies(step_unitary(model, dt, k), dt, sector=k)
        results[k] = res
        for idx, (e, u) in enumerate(zip(res.energies, res.eigenphases)):
            rows.append((k, idx, e, u.real, u.imag))
    write_csv(
        os.path.join(outdir, "energies.csv"),
        ["sector", "index", "energy", "eigenphase_re", "eigenphase_im"], rows,
    )
    summary = {
        "delta_t": dt, "U": cfg["U"], "phi_plaq": cfg["phi_plaq"],
        "distinct_sector2": distinct_energy_count(results[2].energies),
    }
    gs = ground_space(results[2])
    summary.update(
        gap=gs.gap, degeneracy_split=gs.degeneracy_split,
        ground_energy=float(results[2].energies[0]),
    )
    if cfg["U"] != 0.0:
        ana = analytic_ground_state(model, 1)
        alpha, beta, value = overlap_optimize(
            ana.amplitudes, gs.states[:, 0], gs.states[:, 1]
        )
        summary.update(
            overlap_value=value,
            alpha_re=alpha.real, alpha_im=alpha.imag,
            beta_re=beta.real, beta_im=beta.imag,
        )
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


# --- steady state ------------------------------------------------------------


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS copies bundled with
    numpy (64-bit interface) and scipy; empty where those are absent."""
    controls = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs", "libscipy_openblas*")
        for path in glob.glob(libs):
            try:
                lib = ctypes.CDLL(path)
                get_n = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                set_n = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get_n.argtypes, get_n.restype = [], ctypes.c_int
            set_n.argtypes, set_n.restype = [ctypes.c_int], None
            controls.append((get_n, set_n))
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block (or, as a decorator, the function) with BLAS on one
    thread, then restore the old counts.

    The steady-state scan then does the same arithmetic serially and in
    pool workers, whatever OPENBLAS_NUM_THREADS says, and pool workers do
    not oversubscribe the cores."""
    controls = _openblas_thread_controls()
    saved = [get_n() for get_n, _ in controls]
    for _, set_n in controls:
        set_n(1)
    try:
        yield
    finally:
        for (_, set_n), n in zip(controls, saved):
            set_n(n)


def _steady_point(channel, k_dt, omega, tol, ground_states):
    basis = channel.basis
    rho0 = product_fock_state(basis, (0,) * basis.n_modes).to_density_matrix()
    rep = fixed_point(channel.at_omega(omega), rho0, tol=tol,
                      max_iter=100_000)
    rep = steady_state_observables(rep, ground_states)
    return (
        omega, k_dt, rep.n_photon, rep.P1, rep.P2, rep.p2_over_p1,
        rep.postselected_overlap if rep.postselected_overlap is not None
        else float("nan"),
        rep.iterations, rep.residual, rep.converged,
    )


# what every scan worker shares: the channels by K_dt, tol, ground states;
# set once per worker by the pool initializer, never in the parent
_worker_scan = None


def _init_scan_worker(*scan):
    global _worker_scan
    _worker_scan = scan


@_one_blas_thread()
def _scan_worker_point(job):
    channels, tol, ground_states = _worker_scan
    k_dt, omega = job
    return _steady_point(channels[k_dt], k_dt, omega, tol, ground_states)


@_one_blas_thread()
def run_steady_state(cfg, outdir, threads: int = 1):
    model = _fqh_model(cfg)
    dt = cfg["delta_t"]
    spec2 = effective_energies(step_unitary(model, dt, 2), dt, sector=2)
    spec1 = effective_energies(step_unitary(model, dt, 1), dt, sector=1)
    gs = ground_space(spec2)
    eps_fqh = float(np.mean(spec2.energies[:2]))
    omegas = np.linspace(cfg["omega_min"], cfg["omega_max"],
                         cfg["omega_points"])
    n_max, tol = cfg["n_max"], cfg.get("tol", 1e-6)
    basis = enumerate_basis(model.n_sites, range(n_max + 1))
    # omega only sets the channel's phase diagonal: one build per K_dt
    channels = {
        k_dt: CirculationChannel(
            model, dt,
            DriveDissParams.from_circuit(k_dt, cfg["alpha_ratio"] * k_dt,
                                         0.0, dt),
            n_max=n_max, ancilla_cut=cfg.get("ancilla_cut", 3), basis=basis,
        )
        for k_dt in cfg["K_dt_list"]
    }
    jobs = [(k_dt, float(om)) for k_dt in cfg["K_dt_list"] for om in omegas]
    if threads > 1:
        with ProcessPoolExecutor(
            max_workers=min(threads, len(jobs)),
            initializer=_init_scan_worker,
            initargs=(channels, tol, gs.states),
        ) as pool:
            results = list(pool.map(_scan_worker_point, jobs))
    else:
        results = [
            _steady_point(channels[k_dt], k_dt, om, tol, gs.states)
            for k_dt, om in jobs
        ]
    results.sort(key=lambda r: (r[1], r[0]))
    non_conv = [r for r in results if not r[9]]
    write_csv(
        os.path.join(outdir, "steady_state.csv"),
        ["Omega_drive", "K_dt", "n_photon", "P1", "P2", "P2_over_P1",
         "overlap", "iterations", "residual", "converged"],
        [r[:9] + (int(r[9]),) for r in results],
    )
    summary = {
        "eps_fqh": eps_fqh,
        "resonance_omega": eps_fqh / 2,
        "sector1_resonance": float(spec1.energies[0]),
        "gap": gs.gap,
        "n_points": len(results),
        "non_converged": len(non_conv),
    }
    for k_dt in cfg["K_dt_list"]:
        sel = [r for r in results if r[1] == k_dt]
        oms = np.array([r[0] for r in sel])
        ovl = np.array([r[6] for r in sel])
        ratio = np.array([r[5] for r in sel])
        nph = np.array([r[2] for r in sel])
        key = f"Kdt_{_fmt(k_dt)}"
        summary[key] = {
            "peak_overlap": float(np.nanmax(ovl)),
            "peak_overlap_omega": float(oms[np.nanargmax(ovl)]),
            "peak_n_photon": float(np.max(nph)),
            "peak_n_photon_omega": float(oms[np.argmax(nph)]),
            "ratio_maxima_omegas": _local_maxima(oms, ratio),
        }
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


def _local_maxima(x, y):
    """Interior local maxima positions, refined by quadratic interpolation."""
    out = []
    for i in range(1, len(y) - 1):
        if y[i] >= y[i - 1] and y[i] >= y[i + 1] and (
            y[i] > y[i - 1] or y[i] > y[i + 1]
        ):
            denom = y[i - 1] - 2 * y[i] + y[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
            out.append(float(x[i] + shift * (x[1] - x[0])))
    return out


# --- incoherent protocol -------------------------------------------------------


def run_incoherent(cfg, outdir):
    model = _fqh_model(cfg)
    protocol = IncoherentProtocol(
        model, cfg["delta_t"], cfg["chi"], cfg["p_ref"],
        n_max=cfg.get("n_max", 3),
    )
    rows = []
    finals = {}
    for init in cfg.get("inits", ["vacuum", "ground"]):
        protocol.reset(init)
        trace = protocol.run(cfg["n_circulations"],
                             record_every=cfg.get("record_every", 50))
        for rec in trace:
            rows.append((
                init, rec["step"], rec["P0"], rec["P1"], rec["P2"],
                rec["P3"], rec["ground_population"], rec["N_mean"],
                rec["N_var"],
            ))
        finals[init] = trace[-1]
    write_csv(
        os.path.join(outdir, "incoherent_trace.csv"),
        ["init", "step", "P0", "P1", "P2", "P3", "ground_population",
         "N_mean", "N_var"], rows,
    )
    summary = {
        "chi": cfg["chi"], "p_ref": cfg["p_ref"],
        "phi_1": protocol.params.phi_1, "phi_2": protocol.params.phi_2,
        "n_circulations": cfg["n_circulations"],
        "finals": finals,
    }
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


# --- subtraction ---------------------------------------------------------------


def run_subtraction(cfg, outdir):
    pulses = {
        name: (PulseShape.square(cfg.get("grid_points", 4097))
               if name == "square"
               else PulseShape.bump(cfg.get("grid_points", 4097)))
        for name in cfg.get("pulses", ["square", "bump"])
    }
    rows = []
    for name, pulse in sorted(pulses.items()):
        for gamma in cfg["gamma_grid"]:
            pf1 = p_fail_k1(pulse, gamma)
            pf2 = p_fail_k2(pulse, gamma)
            for k in cfg.get("k_list", [1, 2, 3]):
                fs = f_sub_single(pulse, gamma, k)
                fd = f_sub_double(pulse, gamma, k) if k >= 2 else float("nan")
                pf = pf1 if k == 1 else (pf2 if k == 2 else float("nan"))
                rows.append((
                    name, k, gamma, pf, fs, fd,
                    gate_infidelity(pf1, math.pi),
                ))
    write_csv(
        os.path.join(outdir, "subtraction.csv"),
        ["pulse", "k", "gamma", "p_fail", "f_sub_single", "f_sub_double",
         "inf_gate_worstcase"], rows,
    )
    sq = pulses.get("square") or PulseShape.square()
    summary = {
        "benchmark_gamma": 4000.0,
        "p_fail_k1": p_fail_k1(sq, 4000.0),
        "p_fail_k2": p_fail_k2(sq, 4000.0),
        "infidelity_k1": 1 - f_sub_single(sq, 4000.0, 1),
        "infidelity_k2": 1 - f_sub_single(sq, 4000.0, 2),
        "closed_form_k1": closed_form_infidelity_square(4000.0, 1),
        "closed_form_k2": closed_form_infidelity_square(4000.0, 2),
    }
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


# --- schedule compilation -------------------------------------------------------


def run_compile(cfg, outdir):
    dt = cfg["delta_t"]
    geometry = cfg.get("geometry", "chain")
    if geometry == "chain":
        model = build_bose_hubbard(cfg["N_x"], cfg["J"], 0.0,
                                   boundary="periodic")
        layout, events = compile_1d(
            cfg["N_x"], cfg.get("l_x", 1), cfg["J"] * dt,
            variant=cfg.get("variant", "even_simple"),
        )
        basis = enumerate_basis(cfg["N_x"], {1})
    elif geometry == "square":
        model = build_fqh(cfg["N_x"], cfg["N_y"], cfg["J"], 0.0,
                          cfg["phi_plaq"], boundary="periodic")
        phases = {(a, b): cmath.phase(w) for a, b, w in model.edges}
        layout, events = compile_2d(
            cfg["N_x"], cfg["N_y"], cfg.get("l_x", 1),
            cfg.get("l_y", cfg["N_x"] // 2 + 1), cfg["J"] * dt,
            phases=phases,
        )
        basis = enumerate_basis(model.n_sites, {1})
    else:
        raise ValueError(f"unknown geometry {geometry!r}")

    with open(os.path.join(outdir, "schedule.txt"), "w") as fh:
        fh.write(serialize_schedule(layout, events))
    abstract = np.eye(basis.dim, dtype=complex)
    for d in trotter_step_sequence(model, dt, n_max=1):
        abstract = gate_matrix(d, basis).entries @ abstract
    op, firings = simulate_schedule(layout, events, basis)
    equal, distance, phase = certify_equivalence(op.to_dense(), abstract)
    summary = {
        "geometry": geometry,
        "n_events": len(events),
        "n_firings": len(firings),
        "equal": bool(equal),
        "distance": distance,
        "global_phase_re": phase.real,
        "global_phase_im": phase.imag,
    }
    write_json(os.path.join(outdir, "certificate.json"), summary)
    return summary
