"""Exact enumeration and critical exponents of large tandem walks.

Quarter-plane walks with steps (A, 0), (-B, B), (0, -C) and the bijectively
equivalent three-candidate ballot walks in Z^3: exact counting, growth
constants and critical exponents in closed form, classification of models
whose excursion series cannot be differentially finite, numerical fits, and
exact recurrence guessing.
"""

from .bijection import (
    Walk2,
    Walk3,
    generate_ballot_walks,
    map_walk_2to3,
    map_walk_3to2,
    phi,
    reverse_reflect,
)
from .classify import FAMILIES, family, search_triples
from .enumeration import (
    CountSequence,
    QuadrantState,
    count_ballot_3d,
    count_endpoint,
    count_excursions,
    count_walks_total,
)
from .errors import BudgetExceededError, NonConvergenceError, ValidationError
from .exponent import (
    RATIONAL_ALPHA,
    ExponentReport,
    alpha_from_gamma,
    classify_rationality,
    closed_form_critical_point,
    exponent_report,
    gamma_exact_sq,
    gamma_general,
    growth_constant,
    solve_critical_point,
    step_polynomial,
)
from .fit import FitResult, estimate_alpha, estimate_mu
from .guess import Recurrence, guess_recurrence, searched_grid, verify_recurrence
from .models import (
    BallotModel,
    StepSet,
    TandemModel,
    ballot_to_tandem,
    parse_model,
    tandem_step_set,
    tandem_to_ballot,
)

__version__ = "0.1.0"

__all__ = [
    "BallotModel",
    "BudgetExceededError",
    "CountSequence",
    "ExponentReport",
    "FAMILIES",
    "FitResult",
    "NonConvergenceError",
    "QuadrantState",
    "RATIONAL_ALPHA",
    "Recurrence",
    "StepSet",
    "TandemModel",
    "ValidationError",
    "Walk2",
    "Walk3",
    "alpha_from_gamma",
    "ballot_to_tandem",
    "classify_rationality",
    "closed_form_critical_point",
    "count_ballot_3d",
    "count_endpoint",
    "count_excursions",
    "count_walks_total",
    "estimate_alpha",
    "estimate_mu",
    "exponent_report",
    "family",
    "gamma_exact_sq",
    "gamma_general",
    "generate_ballot_walks",
    "growth_constant",
    "guess_recurrence",
    "map_walk_2to3",
    "map_walk_3to2",
    "parse_model",
    "phi",
    "reverse_reflect",
    "search_triples",
    "searched_grid",
    "solve_critical_point",
    "step_polynomial",
    "tandem_step_set",
    "tandem_to_ballot",
    "verify_recurrence",
]
