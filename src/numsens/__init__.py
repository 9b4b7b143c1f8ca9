"""numsens: sensitivity analysis of expected-utility maximization under
perturbations of the unit of account, exact on finite scenario trees."""

from .errors import (
    AdmissibilityError,
    ContractViolationError,
    InvariantViolationError,
    NoOptimizerError,
    NumericalError,
    RepresentationError,
)
from .market import (
    MarketModel,
    load_market,
    numeraire,
    perturbation_statistics,
    perturbed_prices,
    save_market,
)
from .preferences import Utility, log_utility, mixture_utility, power_utility
from .risktol import gkw_decompose, hessian_from_gkw, risk_tolerance, risk_tolerance_measure
from .sensitivity import (
    aux_relation_report,
    build_bases,
    expansion_report,
    gradient,
    hessians,
    optimizer_derivatives,
    solve_aux_dual,
    solve_aux_primal,
)
from .solver import (
    Optimum,
    pricing_measure,
    solve_dual,
    solve_pair,
    solve_primal,
    solve_values,
    verify_deflator,
)
from .strategy import (
    StrategyKit,
    characteristics,
    discount_direction,
    drift_perturbation_theta,
    represent_martingale,
    truncate_localize,
)
from .tree import (
    AdaptedProcess,
    EventTree,
    PredictableProcess,
    quadratic_covariation,
    stochastic_exponential,
    stochastic_integral,
)

__version__ = "0.1.0"
