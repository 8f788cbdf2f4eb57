"""Walk models: ballot triples, tandem triples, and planar step sets.

A ballot triple (a, b, c) with gcd(a, b, c) = 1 describes lattice paths in
Z^3 taking unit steps x+1, y+1, z+1, starting at the origin and confined to
the cone A*x >= B*y >= C*z >= 0, where M = lcm(a, b, c) and A = M/a,
B = M/b, C = M/c.  Complete rounds end on the diagonal ray (a*n, b*n, c*n).

The tandem triple (A, B, C), again with gcd(A, B, C) = 1, describes the
equivalent quarter-plane model with the three steps

    R = (A, 0),    D = (-B, B),    U = (0, -C).

The two parameterizations determine each other through a*A = b*B = c*C = M,
and an excursion of the planar model has length p = a + b + c per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, lcm

from .errors import ValidationError

Step = tuple[int, int]

# unit steps x+1, y+1, z+1 of the 3D ballot walk, in fixed order
BALLOT_STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _check_triple(kind: str, triple: tuple[int, int, int]) -> None:
    for value in triple:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{kind} triple must consist of integers, got {triple!r}")
        if value < 1:
            raise ValidationError(f"{kind} triple must be positive, got {triple!r}")
    if gcd(*triple) != 1:
        raise ValidationError(f"{kind} triple must have gcd 1, got {triple!r}")


@dataclass(frozen=True)
class BallotModel:
    """A coprime positive triple (a, b, c) of candidate vote shares."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        _check_triple("ballot", (self.a, self.b, self.c))

    @property
    def M(self) -> int:
        return lcm(self.a, self.b, self.c)

    @property
    def period(self) -> int:
        """Steps per round: p = a + b + c."""
        return self.a + self.b + self.c


@dataclass(frozen=True)
class TandemModel:
    """A coprime positive triple (A, B, C) of quarter-plane step sizes."""

    A: int
    B: int
    C: int

    def __post_init__(self) -> None:
        _check_triple("tandem", (self.A, self.B, self.C))

    @property
    def M(self) -> int:
        return lcm(self.A, self.B, self.C)

    @property
    def period(self) -> int:
        """Excursion lengths are multiples of p = M/A + M/B + M/C."""
        m = self.M
        return m // self.A + m // self.B + m // self.C


@cache
def ballot_to_tandem(m: BallotModel) -> TandemModel:
    big = m.M
    return TandemModel(big // m.a, big // m.b, big // m.c)


def tandem_to_ballot(m: TandemModel) -> BallotModel:
    big = m.M
    return BallotModel(big // m.A, big // m.B, big // m.C)


@dataclass(frozen=True)
class StepSet:
    """A finite set of distinct planar integer steps."""

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        steps = tuple(tuple(s) for s in self.steps)
        if not steps:
            raise ValidationError("step set must be nonempty")
        for s in steps:
            if len(s) != 2 or not all(isinstance(v, int) and not isinstance(v, bool) for v in s):
                raise ValidationError(f"steps must be integer pairs, got {s!r}")
        if len(set(steps)) != len(steps):
            raise ValidationError(f"steps must be distinct, got {steps!r}")
        object.__setattr__(self, "steps", steps)


def tandem_step_set(m: TandemModel) -> StepSet:
    return StepSet(((m.A, 0), (-m.B, m.B), (0, -m.C)))


def parse_ints(text: str, count: int) -> tuple[int, ...]:
    """Exactly ``count`` comma-separated integers."""
    parts = text.split(",")
    if len(parts) == count:
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            pass
    raise ValidationError(f"expected {count} comma-separated integers, got {text!r}")


def parse_model(text: str) -> TandemModel:
    """Parse ``"A,B,C"`` or ``"ballot:a,b,c"`` into a tandem model."""
    text = text.strip()
    if text.startswith("ballot:"):
        return ballot_to_tandem(BallotModel(*parse_ints(text[len("ballot:"):], 3)))
    return TandemModel(*parse_ints(text, 3))
