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
    face_product,
    is_chamber,
    load_arrangement_file,
    parse_sign_vector,
    partition_to_sign_vector,
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
    stationary_without_replacement,
    survival_exact_profile,
    total_variation_profile,
    transition_matrix,
)
from .gallery import (
    TsetlinBoundReport,
    TsetlinSpec,
    hypercube_nn_faces,
    hypercube_nonlocal_faces,
    k_to_top_faces,
    kset_coupling_closed_form,
    riffle_coupling_closed_form,
    riffle_faces,
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
    check_monotone,
    conditional_at_site,
    coupon_survival_uniform,
    coverage_conditioned_profile,
    stationary_distribution,
    glauber_matrix,
    glauber_separation_profile,
    glauber_step,
    ising_system,
    monotone_lower_bounds,
    product_system,
)
from .walk import (
    SurvivalEstimate,
    sample_T_batch,
    simulate_chamber_at,
    survival_from_samples,
)
