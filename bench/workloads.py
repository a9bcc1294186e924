"""The three benchmark workloads and the checks on their outputs.

Each workload has a ``setup`` that builds its operators through the public
constructors its experiment uses (timed as set-up) and a ``round`` that runs
the experiment the way a user does, through ``timebin.cli.main`` with a
config file, then checks what it wrote.  A round returns one ``Op`` per
checked operation.  Library calls go through module attributes
(``timebin.gates.gate_matrix``) so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import timebin
import timebin.cli

import reference

DT = 0.25                      # paper's Trotter step for the flux lattices
FQH_4X4 = {"N_x": 4, "N_y": 4, "J": 1.0, "U": 10.0, "phi_plaq": 0.25,
           "delta_t": DT}
# two-photon resonance eps_FQH / 2 of the 4x4 torus, and a point off it
OMEGA_RES = -2.7983
OMEGA_OFF = -2.5
STEADY_TOL = 1e-3
INCOHERENT_CIRCULATIONS = 250
LATTICE6_STEPS = 10


@dataclass
class Op:
    """One checked operation: ``failed`` when the program raised or exited
    non-zero (``note`` says how), ``errors`` when it ran but an output
    check failed."""

    name: str
    failed: bool = False
    note: str = ""
    errors: list = field(default_factory=list)

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)


def run_cli(argv, ops):
    """timebin.cli.main with its output captured.  A non-zero exit or an
    exception marks every op in ``ops`` failed, with the reason as its note;
    returns True when the command succeeded."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = timebin.cli.main(argv)
        note = f"exit {rc}: {err.getvalue().strip()}"
    except Exception as exc:        # a traceback is the operation's failure
        rc, note = None, f"raised {type(exc).__name__}: {exc}"
    if rc != 0:
        for op in ops:
            op.failed = True
            op.note = note
    return rc == 0


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def fqh_model(u=10.0, n_x=4, n_y=4):
    return timebin.lattice.build_fqh(n_x, n_y, 1.0, u, 0.25)


# --- steady_scan ---------------------------------------------------------------


class SteadyScan:
    name = "steady_scan"
    config = dict(
        FQH_4X4, K_dt_list=[0.1], alpha_ratio=0.1, omega_min=OMEGA_RES,
        omega_max=OMEGA_OFF, omega_points=2, n_max=2, ancilla_cut=3,
        tol=STEADY_TOL,
    )

    def __init__(self, seed):
        self.seed = seed    # no input of this workload is free to vary

    def setup(self):
        model = fqh_model()
        spec = timebin.spectral
        spectra = {
            k: spec.effective_energies(spec.step_unitary(model, DT, k), DT,
                                       sector=k)
            for k in (1, 2)
        }
        cfg = self.config
        k_dt, n_max = cfg["K_dt_list"][0], cfg["n_max"]
        basis = timebin.fock.enumerate_basis(model.n_sites, range(n_max + 1))
        params = timebin.dynamics.DriveDissParams.from_circuit(
            k_dt, cfg["alpha_ratio"] * k_dt, OMEGA_RES, DT)
        channel = timebin.dynamics.CirculationChannel(
            model, DT, params, n_max=n_max, ancilla_cut=cfg["ancilla_cut"],
            basis=basis)
        return {"spectra": spectra, "channel": channel}

    def round(self, state, outdir, threads=1):
        cfg = write_config(os.path.join(outdir, "config.json"), self.config)
        ops = [Op(f"point@{OMEGA_RES}"), Op(f"point@{OMEGA_OFF}")]
        if not run_cli(["steady_state", "--config", cfg, "--out", outdir,
                         "--threads", str(threads)], ops):
            return ops
        rows = read_csv(os.path.join(outdir, "steady_state.csv"))
        summary = read_json(os.path.join(outdir, "summary.json"))
        by_omega = {round(float(r["Omega_drive"]), 6): r for r in rows}
        res, off = (by_omega.get(round(w, 6)) for w in (OMEGA_RES, OMEGA_OFF))
        if res is None or off is None or len(rows) != 2:
            for op in ops:
                op.check(False, f"scan rows {sorted(by_omega)} are not the two points")
            return ops
        for op, row in zip(ops, (res, off)):
            p1, p2 = float(row["P1"]), float(row["P2"])
            op.check(row["converged"] == "1", "point did not converge")
            for label, p in (("P1", p1), ("P2", p2), ("P1+P2", p1 + p2)):
                op.check(0.0 <= p <= 1.0, f"{label} = {p} outside [0, 1]")
        ov_res, ov_off = float(res["overlap"]), float(off["overlap"])
        ops[0].check(ov_res > 0.95, f"resonant ground overlap {ov_res} <= 0.95")
        ops[0].check(ov_res > ov_off,
                     f"resonant overlap {ov_res} <= off-resonant {ov_off}")
        ops[0].check(abs(summary["resonance_omega"] - OMEGA_RES) < 1e-3,
                     f"resonance moved to {summary['resonance_omega']}")
        return ops

    @staticmethod
    def check_fixed_points(captured, ops):
        """Traced run: the fixed points the solver returned are density
        matrices, and one more channel application moves each by < 2 tol."""
        names = {op.name: op for op in ops}
        for channel, report, tol in captured:
            op = names.get(f"point@{round(channel.params.Omega_drive, 6)}")
            if op is None:
                continue
            rho = report.rho_fix.matrix
            herm = float(np.max(np.abs(rho - rho.conj().T)))
            op.check(herm < 1e-12, f"rho not Hermitian ({herm:.2e})")
            tr = complex(np.trace(rho))
            op.check(abs(tr - 1.0) < 1e-9, f"trace rho = {tr}")
            low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
            # the solver fixes rho only to within tol, so PSD is asked to that
            op.check(low > -tol, f"rho has eigenvalue {low:.2e}")
            step = np.linalg.svd(channel(rho) - rho, compute_uv=False).sum()
            op.check(step < 2 * tol, f"one more circulation moves rho by {step:.2e}")


# --- incoherent_protocol ----------------------------------------------------------


class IncoherentProtocolRun:
    name = "incoherent_protocol"
    config = dict(FQH_4X4, chi=0.048, p_ref=0.01, n_max=3,
                  n_circulations=INCOHERENT_CIRCULATIONS, record_every=50,
                  inits=["vacuum", "ground"])

    def __init__(self, seed):
        self.seed = seed    # no input of this workload is free to vary

    def setup(self):
        return {"protocol": timebin.dynamics.IncoherentProtocol(
            fqh_model(), DT, self.config["chi"], self.config["p_ref"],
            n_max=self.config["n_max"])}

    def round(self, state, outdir):
        cfg = write_config(os.path.join(outdir, "config.json"), self.config)
        ops = [Op(f"init={init}") for init in self.config["inits"]]
        if not run_cli(["incoherent", "--config", cfg, "--out", outdir], ops):
            return ops
        rows = read_csv(os.path.join(outdir, "incoherent_trace.csv"))
        runs = {}
        for op, init in zip(ops, self.config["inits"]):
            recs = [r for r in rows if r["init"] == init]
            runs[init] = recs
            op.check(len(recs) == 1 + self.config["n_circulations"]
                     // self.config["record_every"],
                     f"{len(recs)} records")
            for r in recs:
                pk = np.array([float(r[f"P{k}"]) for k in range(4)])
                mean = float(np.dot(np.arange(4), pk))
                var = float(np.dot(np.arange(4) ** 2, pk)) - mean**2
                step = r["step"]
                op.check(abs(pk.sum() - 1.0) < 1e-9,
                         f"step {step}: sum P_k = {pk.sum()!r}")
                op.check(abs(mean - float(r["N_mean"])) < 1e-9,
                         f"step {step}: N_mean {r['N_mean']} vs {mean}")
                op.check(abs(var - float(r["N_var"])) < 1e-9,
                         f"step {step}: N_var {r['N_var']} vs {var}")
                op.check(float(r["ground_population"]) <= pk[2] + 1e-12,
                         f"step {step}: ground population above P2")
        vac, gnd = runs["vacuum"], runs["ground"]
        if vac and gnd:
            first = abs(float(vac[0]["ground_population"])
                        - float(gnd[0]["ground_population"]))
            last = abs(float(vac[-1]["ground_population"])
                       - float(gnd[-1]["ground_population"]))
            ops[-1].check(last < first,
                          f"vacuum/ground gap grew from {first} to {last}")
        return ops


# --- quick_suite ------------------------------------------------------------------


class QuickSuite:
    name = "quick_suite"
    square_compile = {"geometry": "square", "N_x": 4, "N_y": 4, "J": 1.0,
                      "phi_plaq": 0.25, "delta_t": 0.2, "l_x": 1, "l_y": 3}

    def __init__(self, seed):
        # the only free input: which three sites of the 6x6 torus start lit
        self.start_sites = tuple(sorted(random.Random(seed).sample(range(36), 3)))

    def setup(self):
        model = fqh_model(n_x=6, n_y=6)
        basis = timebin.fock.enumerate_basis(model.n_sites, {3})
        seq = timebin.lattice.trotter_step_sequence(model, DT, n_max=3)
        gates = [timebin.gates.gate_matrix(d, basis) for d in seq]
        return {"basis": basis, "seq": seq, "gates": gates}

    def round(self, state, outdir):
        ops = []
        for name, check in (
            ("quench", self._check_quench),
            ("spectrum", self._check_spectrum),
            ("subtraction", self._check_subtraction),
            ("compile", self._check_certificate),
        ):
            ops.append(self._cli_op(name, [name], outdir, check))
        cfg = write_config(os.path.join(outdir, "square.json"),
                           self.square_compile)
        ops.append(self._cli_op("compile_square",
                                ["compile", "--config", cfg], outdir,
                                self._check_certificate))
        lattice6 = [Op("lattice6_quench"), Op("lattice6_free_bosons"),
                    Op("lattice6_schedule")]
        try:
            self._lattice6(state, *lattice6)
        except Exception as exc:    # a traceback is the operations' failure
            for op in lattice6:
                op.failed = True
                op.note = f"raised {type(exc).__name__}: {exc}"
        return ops + lattice6

    def _cli_op(self, label, argv, outdir, check):
        op = Op(label)
        sub = os.path.join(outdir, label)
        if run_cli(argv + ["--out", sub], [op]):
            try:
                check(sub, op)
            except (KeyError, ValueError, OSError) as exc:
                op.check(False, f"unreadable output: {type(exc).__name__}: {exc}")
        return op

    @staticmethod
    def _check_quench(sub, op):
        s = read_json(os.path.join(sub, "summary.json"))
        op.check(abs(s["sum_rule"] - 2.0) < 1e-9, f"sum rule {s['sum_rule']}")
        op.check(abs(s["final_norm"] - 1.0) < 1e-10, f"norm {s['final_norm']}")
        op.check(s["same_side_mass_antipodal"] < s["opposite_side_mass_antipodal"],
                 "U=10 pair does not anti-bunch at the antipodal time")
        sums = {}
        for r in read_csv(os.path.join(sub, "quench_correlator.csv")):
            sums[r["step"]] = sums.get(r["step"], 0.0) + float(r["correlator"])
        op.check(max(abs(v - 2.0) for v in sums.values()) < 1e-9,
                 "a correlator frame does not sum to 2")

    @staticmethod
    def _check_spectrum(sub, op):
        rows = read_csv(os.path.join(sub, "energies.csv"))
        dt = timebin.cli.DEFAULTS["spectrum"]["delta_t"]
        for sector, dim in ((1, 16), (2, 136)):
            sel = [r for r in rows if r["sector"] == str(sector)]
            op.check(len(sel) == dim, f"sector {sector}: {len(sel)} energies")
            e = np.array([float(r["energy"]) for r in sel])
            u = np.array([complex(float(r["eigenphase_re"]),
                                  float(r["eigenphase_im"])) for r in sel])
            op.check(np.all(np.diff(e) >= 0), f"sector {sector} not ascending")
            op.check(np.max(np.abs(np.abs(u) - 1.0)) < 1e-9,
                     f"sector {sector}: eigenphase off the unit circle")
            op.check(np.max(np.abs(e + np.angle(u) / dt)) < 1e-9,
                     f"sector {sector}: energy != -arg(u)/dt")
        s = read_json(os.path.join(sub, "summary.json"))
        op.check(s["degeneracy_split"] < 0.1 * s["gap"], "ground doublet split")
        op.check(s["overlap_value"] >= 0.90,
                 f"analytic ground overlap {s['overlap_value']}")

    @staticmethod
    def _check_subtraction(sub, op):
        for r in read_csv(os.path.join(sub, "subtraction.csv")):
            gamma, k = float(r["gamma"]), int(r["k"])
            for key in ("p_fail", "f_sub_single", "f_sub_double"):
                v = float(r[key])
                op.check(math.isnan(v) or 0.0 <= v <= 1.0,
                         f"{r['pulse']} k={k} gamma={gamma}: {key} = {v}")
            if r["pulse"] != "square" or k > 2:
                continue
            pairs = [(1.0 - float(r["f_sub_single"]),
                      reference.square_infidelity(gamma, k), "1-F_sub")]
            if k == 1:
                pairs.append((float(r["p_fail"]),
                              reference.square_p_fail_k1(gamma), "p_fail"))
            for got, want, label in pairs:
                # the quadratures promise ~1e-5 relative accuracy
                op.check(abs(got - want) <= 1e-4 * want,
                         f"square k={k} gamma={gamma}: {label} {got} vs {want}")

    @staticmethod
    def _check_certificate(sub, op):
        c = read_json(os.path.join(sub, "certificate.json"))
        op.check(c["equal"] and c["distance"] < 1e-10,
                 f"certificate equal={c['equal']} distance={c['distance']}")

    def _lattice6(self, state, quench, free, sched):
        basis, seq, gates = state["basis"], state["seq"], state["gates"]
        fock, gmod, lattice = timebin.fock, timebin.gates, timebin.lattice
        occ = [0] * 36
        for s in self.start_sites:
            occ[s] = 1
        psi0 = fock.product_fock_state(basis, occ)

        psi = psi0
        for _ in range(LATTICE6_STEPS):
            for g in gates:
                psi = gmod.apply_gate(psi, g)
        quench.check(abs(psi.norm() - 1.0) < 1e-10, f"norm {psi.norm()!r}")

        # U = 0 copy: the free model's step is the same beamsplitters
        # without the number-phase layer, so it reuses the built gates
        model0 = fqh_model(u=0.0, n_x=6, n_y=6)
        seq0 = lattice.trotter_step_sequence(model0, DT, n_max=3)
        same = len(seq0) <= len(seq) and all(
            a.kind == b.kind and a.modes == b.modes and a.params == b.params
            for a, b in zip(seq0, seq))
        free.check(same, "U=0 step is not the beamsplitter prefix of U=10")
        hops = [(d.modes[0], d.modes[1], d.params["theta"], d.params["phi"])
                for d in seq0]
        g1 = reference.one_photon_step(36, hops)
        if same:
            psi = psi0
            for _ in range(LATTICE6_STEPS):
                for g in gates[:len(seq0)]:
                    psi = gmod.apply_gate(psi, g)
            want = reference.free_boson_amplitudes(
                np.linalg.matrix_power(g1, LATTICE6_STEPS),
                basis.occupations(), self.start_sites)
            dist = float(np.max(np.abs(psi.amplitudes - want)))
            free.check(dist < 1e-10, f"permanent mismatch {dist:.2e}")

        phases = {(a, b): cmath.phase(w) for a, b, w in model0.edges}
        layout, events = timebin.schedule.compile_2d(
            6, 6, 1, 4, model0.J * DT, phases=phases)
        basis1 = fock.enumerate_basis(36, {1})
        op, _ = timebin.schedule.simulate_schedule(layout, events, basis1)
        order = [basis1.index[tuple(int(i == s) for i in range(36))]
                 for s in range(36)]
        abstract = np.zeros_like(g1)
        abstract[np.ix_(order, order)] = g1
        equal, dist, _ = timebin.schedule.certify_equivalence(
            op.to_dense(), abstract)
        sched.check(equal and dist < 1e-10,
                    f"6x6 schedule certificate equal={equal} distance={dist}")


WORKLOADS = {w.name: w for w in (SteadyScan, IncoherentProtocolRun, QuickSuite)}
