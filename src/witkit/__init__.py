"""Entanglement witnesses with optimized local measurement-setting decompositions.

The package builds the standard two- and three-qubit witnesses (GHZ and
W detectors plus the two-qubit partial-transpose family), decomposes
them into local von Neumann measurement settings, certifies lower bounds
on how many settings any decomposition needs, and simulates shot-limited
local measurement of a witness on a density matrix.
"""

from .certify import (
    LowerBoundCertificate,
    lower_bound,
    rank_one_elements_in_span,
    slice_span_dimension,
    structured_rank_one_check,
)
from .linalg import (
    hermitian_eigenvalues,
    kron_all,
    numerical_rank,
    partial_transpose,
)
from .pauli import (
    PauliCoefficients,
    SliceFamily,
    from_pauli,
    slice_family,
    to_pauli,
    to_sparse_map,
)
from .settings import (
    AXES,
    Direction,
    LocalDecomposition,
    MeasurementSetting,
    SearchResult,
    catalog_decomposition,
    decomposition_from_json_dict,
    decomposition_search,
    decomposition_to_json_dict,
    direction,
    group_pauli_terms,
    setting,
    setting_operator,
    verify_decomposition,
)
from .simulate import (
    EstimateReport,
    estimate_witness,
    outcome_probabilities,
    sample_counts,
)
from .states import (
    DensityMatrix,
    PureState,
    as_state,
    ghz_state,
    random_biseparable_state,
    random_product_state,
    schmidt_state,
    slocc_normal_form,
    w_state,
    white_noise_mix,
)
from .witnesses import (
    Verdict,
    Witness,
    as_coefficients,
    as_operator,
    classify,
    expectation,
    lambda_minus,
    noise_threshold,
    ppt_check,
    witness_ghz,
    witness_phi,
    witness_w0,
    witness_w1,
    witness_w2,
)

__version__ = "0.1.0"
