"""The bijection between cone walks in Z^3 and tandem quarter-plane walks.

The linear map (x, y, z) -> (A*x - B*y, B*y - C*z) sends the cone
A*x >= B*y >= C*z >= 0 onto the closed quadrant, and sends the unit steps
x+1, y+1, z+1 to the tandem steps (A, 0), (-B, B), (0, -C).  Walks map
letterwise:

    X -> R,    Y -> D,    Z -> U.

The walk-level check holds all walks of a round as one uint8 matrix, a row
of ASCII letters per walk.  ``generate_ballot_walks`` builds it level by
level: it extends every cone prefix of one length at once, keeps one parent
index and one letter per prefix, and backtracks from the complete walks.
Every cone prefix extends to a complete walk (X letters first, then Y, then
Z), so no level holds more prefixes than there are walks, and memory is
O(count x length).  The node budget caps the prefixes of all lengths
together, the nodes a depth-first search would visit.  ``map_walk_3to2``
translates the letters, and ``bijection_failure`` checks the words and their
images with running sums, column by column, and counts the distinct images
after one lexicographic sort of the rows.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceededError, check_integer
from .models import BallotModel, ballot_to_tandem, tandem_step_set

_LETTERS3 = np.frombuffer(b"XYZ", dtype=np.uint8)
_3TO2 = np.zeros(256, dtype=np.uint8)
_3TO2[_LETTERS3] = np.frombuffer(b"RDU", dtype=np.uint8)

DEFAULT_NODE_BUDGET = 10_000_000


def generate_ballot_walks(
    m: BallotModel, rounds: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> np.ndarray:
    """Every cone walk ending at (a*n, b*n, c*n) with n = rounds: one row of
    letters X, Y, Z per walk, in lexicographic order.

    Raises when the cone prefixes of all lengths, the empty one included,
    exceed the node budget.
    """
    check_integer("rounds", rounds)
    check_integer("node_budget", node_budget)
    T = ballot_to_tandem(m)
    A, B, C = T.A, T.B, T.C
    tx, ty, tz = m.a * rounds, m.b * rounds, m.c * rounds
    x = y = z = np.zeros(1, dtype=np.int64)  # endpoint of every prefix of the level
    links = []  # per level: the parent and the letter of every prefix
    nodes = 0
    for length in range(m.period * rounds + 1):
        if length:
            # a letter raises one side of A*x >= B*y >= C*z: only that side can break
            fits = np.stack((x < tx, (y < ty) & (A * x >= B * (y + 1)),
                             (z < tz) & (B * y >= C * (z + 1))), axis=1)
            parent, letter = np.nonzero(fits)  # parents in order, then X < Y < Z
            links.append((parent, _LETTERS3[letter]))
            x, y, z = (v[parent] + (letter == i) for i, v in enumerate((x, y, z)))
        nodes += len(x)
        if nodes > node_budget:
            raise BudgetExceededError(f"search exceeded the node budget of {node_budget}")
    words = np.empty((len(x), len(links)), dtype=np.uint8)
    row = np.arange(len(x))
    for k in range(len(links) - 1, -1, -1):
        parent, letters = links[k]
        words[:, k] = letters[row]
        row = parent[row]
    return words


def map_walk_3to2(words: np.ndarray) -> np.ndarray:
    """The letterwise images of cone walks: X, Y, Z become R, D, U."""
    return _3TO2[words]


def _step_table(letters: bytes, steps) -> np.ndarray:
    """Row ``code`` holds the step of the letter with that byte code."""
    table = np.zeros((256, len(steps[0])), dtype=np.int64)
    table[list(letters)] = steps
    return table


def _first_exit(words: np.ndarray, table: np.ndarray):
    """The endpoints of the walks that the rows of ``words`` spell with the
    steps ``table[letter]``, and (row, length) of the first row whose prefix
    leaves the closed orthant, at its shortest such prefix, or None."""
    ends = np.zeros((len(words), table.shape[1]), dtype=np.int64)
    low = np.zeros_like(ends)  # running minimum of every coordinate
    for column in words.T:
        ends += table[column]
        np.minimum(low, ends, out=low)
    left = (low < 0).any(axis=1)
    if not left.any():
        return ends, None
    row = int(left.argmax())
    path = np.cumsum(table[words[row]], axis=0)
    return ends, (row, int((path < 0).any(axis=1).argmax()) + 1)


def bijection_failure(
    m: BallotModel, words: np.ndarray, images: np.ndarray, count: int
) -> str | None:
    """Why the cone walks ``words`` and their ``images`` fail the walk-level
    bijection with ``count`` walks, or None when they pass.

    The checks run in order: each prefix of each word stays in the cone,
    each image prefix stays in the quadrant, there are ``count`` words and
    as many distinct images, and each image ends at the origin.  A failure
    names the first row in order, at its shortest failing prefix.
    """
    T = ballot_to_tandem(m)
    # the cone in the coordinates (A*x - B*y, B*y - C*z, C*z) is an orthant
    cone = _step_table(b"XYZ", ((T.A, 0, 0), (-T.B, T.B, 0), (0, -T.C, T.C)))
    _, exit_at = _first_exit(words, cone)
    if exit_at:
        row, k = exit_at
        x, y, z = (words[row, :k] == _LETTERS3[:, None]).sum(axis=1)
        return f"prefix of length {k} leaves the cone at ({x}, {y}, {z})"
    quadrant = _step_table(b"RDU", tandem_step_set(T).steps)
    ends, exit_at = _first_exit(images, quadrant)
    if exit_at:
        row, k = exit_at
        x, y = quadrant[images[row, :k]].sum(axis=0)
        return f"prefix of length {k} leaves the quadrant at ({x}, {y})"
    # rows in lexicographic order (lexsort's last key, column 0, sorts first);
    # a distinct row differs from the one before it
    ranked = images[np.lexsort(images.T[::-1])] if images.size else images
    distinct = len(ranked[:1]) + int((ranked[1:] != ranked[:-1]).any(axis=1).sum())
    if len(words) != count or distinct != count:
        return f"{len(words)} walks, {distinct} distinct images, count {count}"
    away = (ends != 0).any(axis=1)
    if away.any():
        row = int(away.argmax())
        x, y = ends[row]
        return f"image {images[row].tobytes().decode()} ends at ({x}, {y}), not the origin"
    return None
