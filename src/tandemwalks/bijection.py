"""The bijection between cone walks in Z^3 and tandem quarter-plane walks.

The linear map (x, y, z) -> (A*x - B*y, B*y - C*z) sends the cone
A*x >= B*y >= C*z >= 0 onto the closed quadrant, and sends the unit steps
x+1, y+1, z+1 to the tandem steps (A, 0), (-B, B), (0, -C).  Walks map
letterwise:

    X -> R,    Y -> D,    Z -> U.

``generate_ballot_walks`` lists every cone walk of a given number of rounds
by depth-first search, for the walk-level check; it is exponential and
guarded by a node budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import BudgetExceededError, ValidationError
from .models import BALLOT_STEPS, BallotModel, TandemModel, ballot_to_tandem, tandem_step_set

_LETTERS3 = "XYZ"
_LETTERS2 = "RDU"
_3TO2 = str.maketrans(_LETTERS3, _LETTERS2)
_UNIT_STEPS = dict(zip(_LETTERS3, BALLOT_STEPS))

DEFAULT_NODE_BUDGET = 10_000_000


@cache
def _tandem_displacements(m: TandemModel) -> dict[str, tuple[int, int]]:
    """The letters R, D, U mapped to the model's steps (tandem_step_set order)."""
    return dict(zip(_LETTERS2, tandem_step_set(m).steps))


@dataclass(frozen=True)
class Walk3:
    """A cone walk: a word over X, Y, Z whose every prefix stays in the cone."""

    model: BallotModel
    steps: str

    def __post_init__(self) -> None:
        T = ballot_to_tandem(self.model)
        x = y = z = 0
        for k, letter in enumerate(self.steps):
            if letter not in _LETTERS3:
                raise ValidationError(f"step {k} is {letter!r}, expected one of X, Y, Z")
            dx, dy, dz = _UNIT_STEPS[letter]
            x, y, z = x + dx, y + dy, z + dz
            if not (T.A * x >= T.B * y >= T.C * z >= 0):
                raise ValidationError(
                    f"prefix of length {k + 1} leaves the cone at ({x}, {y}, {z})"
                )


@dataclass(frozen=True)
class Walk2:
    """A quadrant walk: a word over R, D, U whose every prefix stays in x, y >= 0."""

    model: TandemModel
    steps: str

    def __post_init__(self) -> None:
        displacements = _tandem_displacements(self.model)
        x = y = 0
        for k, letter in enumerate(self.steps):
            if letter not in _LETTERS2:
                raise ValidationError(f"step {k} is {letter!r}, expected one of R, D, U")
            dx, dy = displacements[letter]
            x, y = x + dx, y + dy
            if x < 0 or y < 0:
                raise ValidationError(
                    f"prefix of length {k + 1} leaves the quadrant at ({x}, {y})"
                )

    def endpoint(self) -> tuple[int, int]:
        x = y = 0
        for letter, (dx, dy) in _tandem_displacements(self.model).items():
            k = self.steps.count(letter)
            x, y = x + k * dx, y + k * dy
        return (x, y)

    def is_excursion(self) -> bool:
        return self.endpoint() == (0, 0)


def map_walk_3to2(w: Walk3) -> Walk2:
    return Walk2(ballot_to_tandem(w.model), w.steps.translate(_3TO2))


def generate_ballot_walks(
    m: BallotModel,
    rounds: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[Walk3]:
    """Every cone walk ending at (a*n, b*n, c*n) with n = rounds, depth-first.

    Lexicographic in X < Y < Z.  Raises when the search tree exceeds the
    node budget.
    """
    if not isinstance(rounds, int) or rounds < 0:
        raise ValidationError(f"rounds must be a nonnegative integer, got {rounds!r}")
    T = ballot_to_tandem(m)
    tx, ty, tz = m.a * rounds, m.b * rounds, m.c * rounds
    out: list[Walk3] = []
    nodes = 0

    def rec(x: int, y: int, z: int, word: list[str]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"search exceeded the node budget of {node_budget}")
        if x == tx and y == ty and z == tz:
            out.append(Walk3(m, "".join(word)))
            return
        for letter, (dx, dy, dz) in _UNIT_STEPS.items():
            nx, ny, nz = x + dx, y + dy, z + dz
            if nx > tx or ny > ty or nz > tz:
                continue
            if not (T.A * nx >= T.B * ny >= T.C * nz):
                continue
            word.append(letter)
            rec(nx, ny, nz, word)
            word.pop()

    rec(0, 0, 0, [])
    return out
