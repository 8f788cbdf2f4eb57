"""Byte identity of `enumerate` output against recorded digests.

Each row runs `enumerate --n-max 200` on the 15 table models, each followed
by its reversal partner (29 models: (1,1,1) is its own partner), with the
endpoint pinned to --target A,C.  The row's digest is the sha256 of the
newline-joined sha256 hex digests of the 29 stdouts, cut to 16 hex digits.
A change to the counting kernel that moves any output byte fails here.
"""

import hashlib

import pytest

from tandemwalks import cli

TABLE1 = (
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1),
    (3, 2, 2), (3, 3, 1), (3, 3, 2), (4, 1, 1), (4, 2, 1),
    (4, 3, 1), (4, 3, 2), (4, 3, 3), (4, 4, 1), (4, 4, 3),
)

ROWS = {
    ("exact", "excursions"): "77a0e60d3fa7eacc",
    ("exact", "endpoint"): "c938dd8a326eabe4",
    ("exact", "total"): "aa740dbcc2718cf8",
    ("logfloat", "excursions"): "d415ff6297124158",
    ("logfloat", "endpoint"): "d3067f52b78e9522",
    ("logfloat", "total"): "3b9b53f9aed0fd72",
}


def models_with_partners():
    out = []
    for m in TABLE1:
        out += [m] if m[::-1] == m else [m, m[::-1]]
    return out


@pytest.mark.parametrize("mode, what", sorted(ROWS))
def test_enumerate_csv_rows_keep_their_digest(capsys, mode, what):
    digests = []
    for A, B, C in models_with_partners():
        argv = ["enumerate", "--model", f"{A},{B},{C}", "--what", what, "--n-max", "200",
                "--mode", mode]
        if what == "endpoint":
            argv += ["--target", f"{A},{C}"]
        assert cli.run(argv) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert len(digests) == 29
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16] == ROWS[mode, what]
