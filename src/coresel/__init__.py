"""Influence-guided replay-buffer selection for continual learning.

The package keeps every quantity small enough to check against exact
oracles: convex models with analytic derivatives, one Cholesky factor of
the damped Hessian per selection round serving all of that round's
inverse-Hessian solves, influence scores with their second-order
interference regularizer, greedy and brute-force selectors, and a
continual-learning harness with retraining and rank-agreement validation
built in.
"""

from .numkit import DEFAULT_DAMPING, SolveError
from .models import (
    FitConfig,
    FitError,
    ModelSpec,
    Params,
    Sample,
    accuracy,
    fit,
    grad,
    loss,
    sample_hvp,
)
from .influence import (
    CriterionConfig,
    InfluenceContext,
    TaylorGradResult,
    build_context,
    first_order_influence,
    gradient_matching_distance,
    identical_hessian_form,
    regularizer,
    regularizer_taylor_grad,
    second_order_influence,
    total_interference,
)
from .selection import (
    ReplayBuffer,
    SelectionTrace,
    SelectorKind,
    select_exhaustive,
    select_greedy,
)
from .harness import (
    AccuracyMatrix,
    OracleConfig,
    RunReport,
    Stream,
    StreamSpec,
    acc_bwt,
    finite_eps_second_order,
    kendall_tau,
    loo_retrain_delta,
    loo_retrain_deltas,
    make_stream,
    run_continual,
)

__version__ = "0.1.0"
