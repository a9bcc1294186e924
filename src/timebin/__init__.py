"""Trotterized bosonic lattice simulation on time-bin waveguide photonics."""

__version__ = "0.1.0"

from .fock import (
    DensityMatrix,
    FockBasis,
    SectorOperator,
    StateVector,
    enumerate_basis,
    ladder_operator,
    product_fock_state,
)
from .gates import (
    GateDescriptor,
    apply_gate,
    beamsplitter_gate,
    number_phase_gate,
)
from .lattice import (
    LatticeModel,
    build_bose_hubbard,
    build_fqh,
    edge_coloring,
    exact_hamiltonian,
    trotter_step_sequence,
)
from .spectral import (
    analytic_ground_state,
    effective_energies,
    ground_space,
    jacobi_theta,
    overlap_optimize,
    step_unitary,
)
from .dynamics import (
    DriveDissParams,
    IncoherentParams,
    IncoherentProtocol,
    fixed_point,
    steady_state_observables,
)
from .subtraction import (
    PulseShape,
    derive_quantities,
    f_sub_double,
    f_sub_single,
    gate_infidelity,
    p_fail_k1,
    p_fail_k2,
)
from .schedule import (
    certify_equivalence,
    compile_1d,
    compile_2d,
    simulate_schedule,
)
