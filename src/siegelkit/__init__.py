"""siegelkit: exact continued-fraction arithmetic, linearization of
indifferent disk germs, conformal-radius estimation of Siegel disks, and
sector renormalization of half-plane lifts, with scan and probe drivers."""

from . import bounds, cf, errors, germs, linearize, renorm, scan, series, surd
from .bounds import (
    BrjunoValue,
    ConstantConfig,
    brjuno_sum,
    const_C,
    const_Cdoubleprime,
    const_Cprime,
    is_bounded_type,
    load_config,
)
from .cf import (
    CFExpansion,
    Convergent,
    cf_of_exact,
    cf_of_quadratic_irrational,
    cf_of_rational,
    convergents,
    eval_cf,
    farey_fractions,
    format_cf,
    format_exact,
    parse_cf,
    parse_exact,
    side_and_gap,
    special_sequence_main,
    theta_sequence,
)
from .germs import (
    FlowFamily,
    Germ,
    GermFamily,
    LiftMap,
    QuadraticFamily,
    RotationFamily,
    lift_of_germ,
    lipschitz_estimate,
)
from .linearize import (
    EscapeParams,
    LinearizationSeries,
    RadiusEstimate,
    compose_check,
    escape_radius,
    hadamard_radius,
    linearization_coeffs,
    pole_cancellation_probe,
)
from .renorm import (
    HParams,
    RenormReport,
    RenormSetup,
    ReturnSample,
    build_HJ,
    find_y0,
    h_of_lift,
    renormalized_rotation_number,
    return_map,
    verify_single_pass,
)
from .scan import (
    ConstructionState,
    ScanParams,
    ScanRow,
    check_construction_invariants,
    condition_bdd_search,
    degenerate_probe,
    estimate_radii,
    main_lemma_probe,
    scan_r,
    smooth_disk_driver,
)
from .surd import ExactReal, QuadraticIrrational, exact_cmp, sqrt_exact, to_float

__version__ = "0.1.0"
