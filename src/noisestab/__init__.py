"""Numerical verification of Gaussian noise-stability inequalities.

Library surface: Gaussian special functions and correlation algebra
(:mod:`noisestab.gaussian`), orthant probabilities
(:mod:`noisestab.orthant`), the stability functional and its Hessian
calculus (:mod:`noisestab.jfunc`), a set-expression algebra with Gaussian
measure (:mod:`noisestab.geometry`), Ornstein-Uhlenbeck simulation
(:mod:`noisestab.ousim`), and the experiment harness behind the
``noisestab`` CLI (:mod:`noisestab.verify`).
"""

__version__ = "0.1.0"

from .gaussian import (
    CorrelationMatrix,
    NotPositiveSemidefinite,
    SingularMatrix,
    cholesky,
    inverse_offdiag_nonpositive,
    isoperimetric_profile,
    laplacian_quadratic_form,
    max_eigenvalue,
    ou_covariance,
    semigroup_slope,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from .orthant import (
    Estimate,
    OrthantQuery,
    bivariate_orthant_closed,
    orthant_mc,
    orthant_qmc,
)
from .geometry import (
    AxisBox,
    Ball,
    Complement,
    HalfSpace,
    Intersection,
    SetExpr,
    SetSystem,
    Union,
    UnsupportedRegion,
    boundary_distance,
    contains,
    enlarge,
    gaussian_measure,
    heat_flow,
    parallel_halfspaces,
)
from .jfunc import (
    JEvaluation,
    JQuery,
    KernelDiagnostic,
    hadamard_hessian,
    hessian_top_eigenvalue,
    j_diag_second,
    j_grad,
    j_mixed_second,
    j_value,
    kernel_diagnostic,
)
from .ousim import (
    DominanceRefinement,
    ExitTimeEstimate,
    KroneckerSampler,
    OccupationEstimate,
    OUPath,
    exit_dominance_refined,
    exit_survival,
    exit_survival_pair,
    exit_survival_refined,
    halfspace_survival,
    occupation,
    occupation_pair,
    sample_joint,
    semigroup_apply,
    semigroup_halfspace_closed,
    simulate_path,
)
from .verify import (
    ComparisonResult,
    EqualityDiagnostic,
    GradientBoundResult,
    classify_margin,
    compare,
    equality_diagnostic_run,
    exit_code_for,
    gradient_bound_check,
    joint_containment,
    run_experiment,
    stability_bound,
    verify_exit_dominance,
    verify_main_inequality,
    verify_noise_stability,
    verify_occupation,
)
