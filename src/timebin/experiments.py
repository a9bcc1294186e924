"""The six benchmark experiments behind the command-line runner.

Every experiment takes a flat config dict (validated upstream), writes CSV
and JSON artifacts into an output directory, and returns a summary dict.
All outputs are deterministic: no clocks, no random numbers.  CSV floats
are written with 17 significant digits, JSON floats as Python's shortest
round-trip repr.
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
from fractions import Fraction

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
from .lattice import build_bose_hubbard, build_fqh, step_operator
from .schedule import (
    VARIANTS_1D,
    _fmt,
    certify_equivalence,
    compile_1d,
    compile_2d,
    serialize_schedule,
    simulate_schedule,
)
from .spectral import (
    analytic_ground_state,
    even_total_flux,
    ground_space,
    overlap_optimize,
    sector_spectra,
)
from .subtraction import (
    PulseShape,
    closed_form_infidelity_square,
    derive_quantities,
    f_sub_double,
    f_sub_single,
    gate_infidelity,
    p_fail_k1,
    p_fail_k2,
)


def _create(path):
    """Open path for writing, making its directory first: a run that fails
    before its first write leaves no output directory behind."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w")


def write_csv(path, header, rows):
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v
                              for v in row) + "\n")


def write_json(path, payload):
    with _create(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(outdir, experiment, config):
    write_json(
        os.path.join(outdir, "manifest.json"),
        {"experiment": experiment, "config": config, "version": __version__},
    )


def _fqh_model(cfg):
    return build_fqh(
        cfg["N_x"], cfg["N_y"], cfg["J"], cfg["U"], cfg["phi_plaq"]
    )


# --- BLAS threads ------------------------------------------------------------


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
    """Run the decorated function with BLAS on one thread, then restore the
    old counts.

    A run then does the same arithmetic, and writes the same bytes, whatever
    OPENBLAS_NUM_THREADS says: the spectrum's degenerate eigenvectors and
    the last bits of its energies follow the BLAS blocking.  The
    steady-state scan does the same arithmetic serially and in pool
    workers, and pool workers do not oversubscribe the cores."""
    controls = _openblas_thread_controls()
    saved = [get_n() for get_n, _ in controls]
    for _, set_n in controls:
        set_n(1)
    try:
        yield
    finally:
        for (_, set_n), n in zip(controls, saved):
            set_n(n)


# --- quench ------------------------------------------------------------------


def two_photon_correlator(basis, amplitudes) -> np.ndarray:
    """C[i, j] = <b_i+ b_j+ b_j b_i> = <n_i n_j> - delta_ij <n_i>."""
    occ = basis.occupations()
    w = np.abs(np.asarray(amplitudes)) ** 2
    return occ.T @ (w[:, None] * occ) - np.diag(w @ occ)


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
                               boundary=cfg["boundary"])
    dt = cfg["delta_t"]
    n_steps = int(round(cfg["total_time"] / dt))
    basis = enumerate_basis(n_x, {2})
    step = step_operator(model, dt, basis)
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
    # wavefronts reach the antipode of the ring at t* = N_x/(4|J|); past
    # that they wrap and eventually revive at the starting bond, which
    # scrambles the side bookkeeping (on the 8-ring the revival lands
    # exactly at 4/|J|); at J = 0 nothing spreads, so t* is the last step
    v_max = 2.0 * abs(cfg["J"])
    s_star = (min(n_steps, int(round(n_x / (2.0 * v_max) / dt))) if v_max
              else n_steps)
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


# --- spectrum ----------------------------------------------------------------


@_one_blas_thread()
def run_spectrum(cfg, outdir):
    """Effective energies per sector (``energies.csv``) and the sector-2
    ground doublet's energies, gap and analytic overlap (``summary.json``).

    ``alpha_*`` and ``beta_*`` are coefficients in the eigensolver's basis
    of an exactly degenerate doublet, not physics; ``overlap_value``, ``gap``
    and ``ground_energy`` read only its span and energies.  BLAS runs on one
    thread, so a config writes the same bytes for any thread setting."""
    model = _fqh_model(cfg)
    dt = cfg["delta_t"]
    spectra = sector_spectra(model, dt,
                             enumerate_basis(model.n_sites, cfg["sectors"]))
    rows = []
    for k in cfg["sectors"]:
        res = spectra[k]
        for idx, (e, u) in enumerate(zip(res.energies, res.eigenphases)):
            rows.append((k, idx, e, u.real, u.imag))
    write_csv(
        os.path.join(outdir, "energies.csv"),
        ["sector", "index", "energy", "eigenphase_re", "eigenphase_im"], rows,
    )
    gs = ground_space(spectra[2])
    summary = {
        "delta_t": dt, "U": cfg["U"], "phi_plaq": cfg["phi_plaq"],
        "distinct_sector2": len(spectra[2].manifolds),
        "gap": gs.gap, "degeneracy_split": gs.degeneracy_split,
        "ground_energy": gs.ground_energy,
    }
    # the analytic ground is the hard-core one, at an even total flux
    if cfg["U"] != 0.0 and even_total_flux(model):
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


def _steady_point(channel, k_dt, omega, tol, ground_states):
    """One scan point's record, keyed by the steady-state CSV columns in
    their order."""
    basis = channel.basis
    rho0 = product_fock_state(basis, (0,) * basis.n_modes).to_density_matrix()
    rep = fixed_point(channel.at_omega(omega), rho0, tol=tol,
                      max_iter=100_000)
    return {
        "Omega_drive": omega, "K_dt": k_dt,
        **steady_state_observables(rep.rho_fix, ground_states),
        "iterations": rep.iterations, "residual": rep.residual,
        "converged": int(rep.converged),
    }


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
    spectra = sector_spectra(model, dt, enumerate_basis(model.n_sites, {1, 2}))
    gs = ground_space(spectra[2])
    eps_fqh = float(np.mean(gs.energies))
    omegas = np.linspace(cfg["omega_min"], cfg["omega_max"],
                         cfg["omega_points"])
    n_max, tol = cfg["n_max"], cfg["tol"]
    basis = enumerate_basis(model.n_sites, range(n_max + 1))
    # omega only sets the channel's phase diagonal: one build per K_dt
    channels = {
        k_dt: CirculationChannel(
            model, dt,
            DriveDissParams.from_circuit(k_dt, cfg["alpha_ratio"] * k_dt,
                                         0.0, dt),
            n_max=n_max, ancilla_cut=cfg["ancilla_cut"], basis=basis,
        )
        for k_dt in cfg["K_dt_list"]
    }
    jobs = [(k_dt, float(om)) for k_dt in cfg["K_dt_list"] for om in omegas]
    if threads > 1:
        # the pool forks every worker at its first submit: never more
        # workers than jobs or cores
        with ProcessPoolExecutor(
            max_workers=min(threads, len(jobs), os.cpu_count() or 1),
            initializer=_init_scan_worker,
            initargs=(channels, tol, gs.states),
        ) as pool:
            records = list(pool.map(_scan_worker_point, jobs))
    else:
        records = [
            _steady_point(channels[k_dt], k_dt, om, tol, gs.states)
            for k_dt, om in jobs
        ]
    records.sort(key=lambda r: (r["K_dt"], r["Omega_drive"]))
    write_csv(os.path.join(outdir, "steady_state.csv"), list(records[0]),
              [r.values() for r in records])
    summary = {
        "eps_fqh": eps_fqh,
        "resonance_omega": eps_fqh / 2,
        "sector1_resonance": ground_space(spectra[1]).ground_energy,
        "gap": gs.gap,
        "n_points": len(records),
        "non_converged": sum(not r["converged"] for r in records),
    }
    for k_dt in cfg["K_dt_list"]:
        sel = [r for r in records if r["K_dt"] == k_dt]
        oms, ovl, ratio, nph = (
            np.array([r[key] for r in sel])
            for key in ("Omega_drive", "overlap", "P2_over_P1", "n_photon"))
        key = f"Kdt_{_fmt(k_dt)}"
        # no overlap peak (null) where no point populated two photons
        peak = int(np.nanargmax(ovl)) if not np.isnan(ovl).all() else None
        summary[key] = {
            "peak_overlap": None if peak is None else float(ovl[peak]),
            "peak_overlap_omega": None if peak is None else float(oms[peak]),
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


@_one_blas_thread()
def run_incoherent(cfg, outdir):
    model = _fqh_model(cfg)
    protocol = IncoherentProtocol(model, cfg["delta_t"], cfg["chi"],
                                  cfg["p_ref"], n_max=cfg["n_max"])
    rows = []
    finals = {}
    for init in cfg["inits"]:
        protocol.reset(init)
        trace = protocol.run(cfg["n_circulations"],
                             record_every=cfg["record_every"])
        rows.extend([init, *rec.values()] for rec in trace)
        finals[init] = trace[-1]
    # the run's records: step, then the observables (one P_k per sector)
    write_csv(os.path.join(outdir, "incoherent_trace.csv"),
              ["init", "step", *protocol.observables()], rows)
    summary = {
        "chi": cfg["chi"], "p_ref": cfg["p_ref"],
        "phi_1": protocol.params.phi_1, "phi_2": protocol.params.phi_2,
        "n_circulations": cfg["n_circulations"],
        "finals": finals,
    }
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


# --- subtraction ---------------------------------------------------------------


# the pulse shapes a subtraction config may name, by name
PULSES = {"square": PulseShape.square, "bump": PulseShape.bump}


def run_subtraction(cfg, outdir):
    pulses = {name: PULSES[name](cfg["grid_points"]) for name in cfg["pulses"]}
    # the summary's estimates come from the grid's (square, 4000) row, and
    # are null without one
    benchmark = dict.fromkeys(("p_fail_k1", "p_fail_k2", "infidelity_k1",
                               "infidelity_k2"))
    rows = []
    for name, pulse in sorted(pulses.items()):
        for gamma in cfg["gamma_grid"]:
            d = derive_quantities(pulse, gamma)
            in_summary = name == "square" and gamma == 4000.0
            # each estimate once per derivation and k; the summary's row
            # adds k = 1 and 2 when k_list lacks them
            ks = set(cfg["k_list"]) | ({1, 2} if in_summary else set())
            pf = {1: p_fail_k1(d)}
            if 2 in ks:
                pf[2] = p_fail_k2(d)
            fs = {k: f_sub_single(d, k) for k in ks}
            if in_summary:
                benchmark = {
                    "p_fail_k1": pf[1], "p_fail_k2": pf[2],
                    "infidelity_k1": 1 - fs[1], "infidelity_k2": 1 - fs[2],
                }
            for k in cfg["k_list"]:
                fd = f_sub_double(d, k) if k >= 2 else float("nan")
                rows.append((
                    name, k, gamma, pf.get(k, float("nan")), fs[k], fd,
                    gate_infidelity(pf[1], math.pi),
                ))
            # no derivation outlives its row: holding the 6.3 MB gamma =
            # 4000 one into the gamma = 10,000 derivation raised a fresh
            # run's peak RSS by 5 MB
            del d
    write_csv(
        os.path.join(outdir, "subtraction.csv"),
        ["pulse", "k", "gamma", "p_fail", "f_sub_single", "f_sub_double",
         "inf_gate_worstcase"], rows,
    )
    summary = {
        "benchmark_gamma": 4000.0,
        **benchmark,
        "closed_form_k1": closed_form_infidelity_square(4000.0, 1),
        "closed_form_k2": closed_form_infidelity_square(4000.0, 2),
    }
    write_json(os.path.join(outdir, "summary.json"), summary)
    return summary


# --- schedule compilation -------------------------------------------------------


def compile_schedule(cfg):
    """(model, layout, events) of a compile config.  The layout step of
    run_compile; load_config runs it too, so a config the schedule rules
    reject fails with its ValueError before any output is written."""
    dt = cfg["delta_t"]
    geometry = cfg["geometry"]
    variant, l_x = cfg["variant"], cfg["l_x"]
    if variant not in VARIANTS_1D:      # a square compile never reads it
        raise ValueError(f"unknown 1D variant {variant!r}")
    if geometry == "chain":
        model = build_bose_hubbard(cfg["N_x"], cfg["J"], 0.0,
                                   boundary="periodic")
        layout, events = compile_1d(cfg["N_x"], l_x, cfg["J"] * dt,
                                    variant=variant)
    elif geometry == "square":
        model = build_fqh(cfg["N_x"], cfg["N_y"], cfg["J"], 0.0,
                          cfg["phi_plaq"], boundary="periodic")
        phases = {(a, b): cmath.phase(w) for a, b, w in model.edges}
        l_y = cfg["l_y"]
        if l_y is None:     # a unit gap between clusters
            l_y = Fraction(cfg["N_x"], 2) * Fraction(l_x) + 1
        layout, events = compile_2d(cfg["N_x"], cfg["N_y"], l_x, l_y,
                                    cfg["J"] * dt, phases=phases)
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    return model, layout, events


def run_compile(cfg, outdir):
    dt = cfg["delta_t"]
    geometry = cfg["geometry"]
    model, layout, events = compile_schedule(cfg)
    basis = enumerate_basis(model.n_sites, {1})

    with _create(os.path.join(outdir, "schedule.txt")) as fh:
        fh.write(serialize_schedule(layout, events))
    abstract = step_operator(model, dt, basis)
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
