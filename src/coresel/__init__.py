"""Influence-guided replay-buffer selection for continual learning.

The package keeps every quantity small enough to check against exact
oracles: convex models with analytic derivatives, one LU solve of the
damped Hessian per selection round against all of that round's
right-hand sides, influence scores with their second-order
interference regularizer, greedy and brute-force selectors, and a
continual-learning harness with retraining and rank-agreement validation
built in. The run path (``models``, ``influence``, ``selection``,
``harness``) holds what ``coresel run``, ``sweep`` and ``select`` use;
the slow, exact oracles it is checked against live in ``oracles``.
"""

from .numkit import DEFAULT_DAMPING, ArgumentError, SolveError
from .models import (
    FitConfig,
    FitError,
    ModelSpec,
    Params,
    Sample,
    accuracy,
    fit,
)
from .influence import (
    CriterionConfig,
    InfluenceContext,
    build_context,
)
from .selection import (
    ReplayBuffer,
    SelectionTrace,
    SelectorKind,
    select_greedy,
)
from .harness import (
    OracleConfig,
    RunReport,
    Stream,
    StreamSpec,
    acc_bwt,
    kendall_tau,
    loo_retrain_delta,
    loo_retrain_deltas,
    make_stream,
    run_continual,
)
from .oracles import (
    finite_eps_second_order,
    first_order_influence,
    grad,
    gradient_matching_distance,
    identical_hessian_form,
    loss,
    regularizer,
    sample_hvp,
    second_order_influence,
    select_exhaustive,
)

__version__ = "0.1.0"
