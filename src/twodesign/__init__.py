"""Entanglement detection with incomplete quantum 2-designs.

Constructs mutually unbiased bases and SIC sets for local dimensions 2-4,
evaluates same-outcome correlation sums on bipartite states, derives the
separable-state lower and upper bounds by optimization over product states,
and classifies states by comparing measured sums against both bounds.
"""

from .core import (
    DensityMatrix,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
    ParameterOutOfRangeError,
    UnsupportedDimensionError,
    kron,
    load_density,
    max_entangled_state,
    partial_transpose,
    permutation_operator,
    save_density,
    symmetry_projectors,
    validate_density,
)
from .designs import (
    Design,
    VerificationReport,
    hw_displacement,
    hw_sic,
    mub_triple_family_d4,
    sic_fiducial,
    sic_povm,
    standard_mubs,
    verify_2design,
    verify_mub,
    verify_sic,
)
from .correlations import (
    CorrelationSpec,
    coincidence_probability,
    correlation_sum,
    design_witness_operator,
    mdi_conversion,
)
from .bounds import (
    BoundEnd,
    BoundRecord,
    EnumerationCapExceededError,
    FamilyScanResult,
    OptimizerOptions,
    ProductState,
    SubsetSpectrum,
    closed_form_mub_upper,
    compute_bound_record,
    d4_family_scan,
    design_closed_bounds,
    separable_lower_bound,
    separable_upper_bound,
    subset_bound_spectrum,
)
from .states import (
    DesignMismatchError,
    DetectionVerdict,
    SymmetricStateSpec,
    Verdict,
    closed_form_correlation,
    detect,
    isotropic_state,
    spa_witness,
    symmetric_state,
    werner_state,
    witness_expectation,
)
from .tables import (
    ScanResult,
    TableReport,
    figure_critical_values,
    reproduce_table,
    scan_family,
)

__version__ = "0.1.0"
