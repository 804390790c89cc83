"""Chen-Fliess series toolkit.

Control-affine systems with linear outputs admit a series expansion of
the horizon output: signatures of the control (iterated integrals over
the simplex) paired with iterated Lie derivative features of the output
map. This package computes both sides exactly at desk scale, checks the
truncated series against a Runge-Kutta reference, and turns the pairing
into certified complexity and excess-risk bounds with Monte Carlo
counterparts.
"""

from .bounds import (
    AnalyticFamily,
    BilinearFamily,
    BoundReport,
    GeometricFamily,
    HopfieldFamily,
    PreconditionError,
    analytic_bound,
    bilinear_bound,
    central_binomial_gf,
    excess_risk_bound,
    gamma_k,
    hopfield_bound,
    loss_contraction,
    max_spectral_norm,
    polynomial_polydisc_bound,
    spectral_norm,
    theorem1_bound,
)
from .expressions import (
    Constant,
    Expr,
    ExprError,
    ExprSyntaxError,
    Power,
    Primitive,
    PrimitiveSpec,
    Product,
    Sum,
    UnknownPrimitiveError,
    Var,
    VariableIndexError,
    eval_expr,
    get_primitive,
    parse_expr,
    register_primitive,
    simplify,
    to_text,
)
from .families import exp_remainder, family_from_json_dict, family_to_json_dict
from .learning import (
    Dataset,
    DataValidationError,
    FittedModel,
    JensenCheckReport,
    RademacherEstimate,
    empirical_rademacher,
    erm_fit,
    generalization_experiment,
    jensen_lemma_check,
    make_dataset,
    random_control_path,
    report_to_json,
    sample_ball,
)
from .lie import (
    LambdaReport,
    LieTable,
    ResourceCapError,
    SystemSpec,
    Word,
    bilinear_system,
    differentiate,
    domain_grid,
    iterated_lie,
    lambda_k,
    lie_derivative,
    system_from_exprs,
    system_from_json_dict,
    words_of_length,
    words_up_to,
)
from .series import (
    ConvergenceWarning,
    OdeBlowupError,
    OdeResult,
    SeriesEvaluation,
    absorb_drift,
    chen_fliess_eval,
    feature_matrix,
    ode_reference,
    truncation_tail,
)
from .signatures import (
    ControlPath,
    SignatureTable,
    constant_path,
    signature_entry,
    signature_matrix,
    signature_norm_bound,
    signature_up_to,
)
from .systems import BUILTIN_NAMES, BuiltinSystem, builtin_system, load_system_file

__version__ = "0.1.0"
