"""Random walks on the chambers of central hyperplane arrangements."""

__version__ = "0.1.0"

from .core import (
    Arrangement,
    CapacityError,
    DimensionError,
    WeightedFaceSet,
    build_boolean,
    build_braid,
    build_custom,
    check_separating,
    is_chamber,
    weighted_faces,
)
from .exact import (
    CouplingParameters,
    CutoffPrediction,
    coupling_parameters,
    cutoff_prediction,
    distance_profiles,
    separation_profile,
    stationary_solve,
    survival_exact_profile,
    total_variation_profile,
    transition_matrix,
)
from .gallery import (
    TsetlinBoundReport,
    TsetlinSpec,
    hamming_profiles,
    hypercube_nn_faces,
    hypercube_nonlocal_faces,
    k_to_top_faces,
    kset_coupling_closed_form,
    riffle_coupling_closed_form,
    riffle_faces,
    riffle_profiles,
    sample_card_collection_T,
    sample_kset_coupon_T,
    solve_t_star,
    top_bottom_faces,
    tsetlin_bounds,
    tsetlin_faces,
    tsetlin_survival_profile,
)
from .glauber import (
    MonotoneSystem,
    coupon_survival_uniform,
    glauber_matrix,
    glauber_separation_profile,
    ising_system,
    monotone_lower_bounds,
    product_system,
)
from .walk import (
    SurvivalEstimate,
    sample_T_batch,
    survival_from_samples,
)
