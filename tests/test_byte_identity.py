"""Byte identity of `enumerate` and `fit` output against recorded digests.

Each `enumerate` row runs `enumerate --n-max 200` on the 15 table models,
each followed by its reversal partner (29 models: (1,1,1) is its own
partner), with the endpoint pinned to --target A,C.  The row's digest is the
sha256 of the newline-joined sha256 hex digests of the 29 stdouts, cut to 16
hex digits.  Each `fit` row is the sha256 of the JSON file that the
benchmark's `fit_logfloat` call writes, cut alike.  A change to the counting
kernel that moves any output byte fails here.
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

JSON_ROWS = {
    "excursions": "5161dbc0943c253f",
    "endpoint": "bb4dbcff1782a7a1",
    "total": "c65e5a6fb4d95e7f",
}

# (model, --m-max): (1,1,1) at n = 1200, the others at n = 560
FIT_ROWS = {
    ((1, 1, 1), 399): "e825fb2f2354397c",
    ((3, 1, 1), 79): "af4583de2e7037db",
    ((3, 2, 2), 69): "c8708abfbcf53ed2",
    ((3, 3, 1), 111): "eba29ef95a5cd2e2",
    ((3, 3, 2), 79): "d0927a60b6746d6e",
}


def models_with_partners():
    out = []
    for m in TABLE1:
        out += [m] if m[::-1] == m else [m, m[::-1]]
    return out


def enumerate_row(capsys, what, options):
    digests = []
    for A, B, C in models_with_partners():
        argv = ["enumerate", "--model", f"{A},{B},{C}", "--what", what, "--n-max", "200",
                *options]
        if what == "endpoint":
            argv += ["--target", f"{A},{C}"]
        assert cli.run(argv) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert len(digests) == 29
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


@pytest.mark.parametrize("mode, what", sorted(ROWS))
def test_enumerate_csv_rows_keep_their_digest(capsys, mode, what):
    assert enumerate_row(capsys, what, ["--mode", mode]) == ROWS[mode, what]


@pytest.mark.parametrize("what", sorted(JSON_ROWS))
def test_enumerate_logfloat_json_rows_keep_their_digest(capsys, what):
    options = ["--mode", "logfloat", "--format", "json"]
    assert enumerate_row(capsys, what, options) == JSON_ROWS[what]


@pytest.mark.parametrize("model, m_max", sorted(FIT_ROWS))
def test_fit_json_keeps_its_digest(tmp_path, model, m_max):
    # the argv of the benchmark's fit_logfloat workload
    path = tmp_path / "fit.json"
    argv = ["fit", "--model", ",".join(map(str, model)), "--m-max", str(m_max),
            "--format", "json", "--cell-budget", "1000000000", "--threads", "2",
            "--output", str(path)]
    assert cli.run(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == FIT_ROWS[model, m_max]
