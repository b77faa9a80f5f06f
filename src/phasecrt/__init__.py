"""Coprime-split phase-space toolkit for finite Hilbert spaces.

A dimension M with coprime factors M1*M2 supports an exact relabeling of the
M position labels by torus pairs, a pair of commuting clock/shift unitaries
per factor, four torus-labeled orthonormal bases, and a family of M states
that each sit over one shifted von Neumann lattice of M phase-space points.
The suite submodule verifies every identity numerically.
"""

from .core import (
    FOURIER_SIGN,
    DimensionMismatchError,
    MonomialOperator,
    StateVector,
    apply,
    clock,
    compose,
    default_tolerance,
    equal_up_to_global_phase,
    fourier_matrix,
    global_phase_exponent,
    momentum_state,
    norm_tolerance,
    omega_power,
    operator_order,
    phase_exponent,
    position_state,
    translate,
)
from .lattice import (
    DensityMatrix,
    NotVN,
    PhasePoint,
    VNLattice,
    classify_vn_state,
    default_support_threshold,
    lattice_points,
    mixed_element_matrix,
    support,
)
from .numtheory import (
    CoprimeSplit,
    NonCoprimeError,
    NotInvertibleError,
    PrimeFactorization,
    TrivialSplitError,
    chi,
    crt_compose,
    crt_decompose,
    enumerate_splits,
    factorize,
    make_split,
    mod_inverse,
)
from .reps import (
    BasisKind,
    OverlapComparison,
    PhaseDiscrepancy,
    RepBasis,
    TorusLabel,
    build_basis,
    build_C1,
    build_C2,
    build_E_mom,
    build_E_pos,
    build_pls,
    compare_cross_phases,
    conjugate_basis,
    conjugate_state,
    eigen_residuals,
    factor_kernel,
    overlap_matrix,
)
from .statefile import StateFileError, load_state, save_basis, save_state
from .suite import CheckRecord, VerificationReport, run_suite, run_suites

__version__ = "0.1.0"
