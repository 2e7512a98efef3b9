"""Empirical Bayes hyperparameter estimation for linear-Gaussian inverse problems.

Matrix-free throughout: the forward map and the Matern prior covariance are
touched only through matvecs; the marginal-posterior objective and gradient
are approximated with a generalized Golub-Kahan bidiagonalization, with dense
oracles and runnable error bounds for verification at desk scale.
"""

from .operators import (
    LinearOperatorHandle,
    DenseOperator,
    LowerToeplitzOperator,
    SparseOperator,
    IdentityOperator,
    dense_matrix,
)
from .covariance import (
    MaternKernel,
    RegularGrid,
    CovarianceOperator,
    matern_eval,
    build_cov_operator,
)
from .gengk import (
    BidiagSpectrum,
    GenGKFactorization,
    gengk_bidiag,
    verify_relations,
)
from .marginal import (
    HyperParams,
    Hyperprior,
    MarginalModel,
    ObjectiveEvaluation,
    objective_exact,
    objective_gengk,
    objective_rescaled,
    objective_svd,
)
from .monitor import (
    xi_recurrence,
    mc_xi_estimate,
    err_indicator,
    prop2_bound,
    normal_matrix_apply,
)
from .estimate import (
    OptimizeOptions,
    OptimizeTrace,
    optimize_hyperparams,
    precompute_two_param,
    optimize_two_param,
    map_reconstruct,
    map_reconstruct_exact,
    optimal_lambda_sweep,
)
from .problems import (
    ProblemInstance,
    ray_tomo_2d,
    relative_error,
    build_heat_problem,
    build_ray_tomo_problem,
)

__version__ = "0.1.0"
