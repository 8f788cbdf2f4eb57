"""Byte identity of `enumerate` and `fit` output against recorded digests.

Each `enumerate` row runs `enumerate --n-max 200` on the 15 table models,
each followed by its reversal partner (29 models: (1,1,1) is its own
partner), with the endpoint pinned to --target A,C.  The row's digest is the
sha256 of the newline-joined sha256 hex digests of the 29 stdouts, cut to 16
hex digits.  Each `fit` row is the sha256 of the JSON file that the
benchmark's `fit_logfloat` call writes, cut alike.  Each `guess` row is the
sha256 of the JSON that `guess` prints for one series file, cut alike.  The
totals row digests exact `count_walks_total` terms of every coprime triple
with entries <= 6 at several sweep lengths.  A change to the counting kernel
or the guesser that moves any output byte fails here.
"""

import hashlib

import pytest

from conftest import coprime_triples
from tandemwalks import (
    TandemModel,
    cli,
    count_endpoint,
    count_excursions,
    count_walks_total,
    tandem_step_set,
)

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
    ("logfloat", "total"): "29419b5a5e6c1941",
}

JSON_ROWS = {
    "excursions": "5161dbc0943c253f",
    "endpoint": "bb4dbcff1782a7a1",
    "total": "8e2dc8b436c7ba26",
}

# exact totals of every coprime triple with entries <= 6, swept to each n_max:
# the sweep's window depends on n_max, not only the terms it reads
TOTALS_N_MAX = (0, 1, 2, 7, 40, 120)
TOTALS_ROW = "565b6483d846d6fe"


def test_exact_totals_of_small_triples_keep_their_digest():
    lines = []
    for triple in coprime_triples(6):
        s = tandem_step_set(TandemModel(*triple))
        for n_max in TOTALS_N_MAX:
            lines.append(f"{triple} {n_max} {count_walks_total(s, n_max).values}")
    assert len(lines) == 181 * len(TOTALS_N_MAX)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == TOTALS_ROW


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


# (series, --max-order, --max-degree); the series of the benchmark's
# guess_search workload at offset 0, and the Catalan numbers c_0..c_29 with
# 1 added to each of the last ten
GUESS_ROWS = {
    ("excursions_2_1_1", 10, 10): "48026ed76cb2b544",
    ("motzkin", 3, 3): "0254f0f36eaa5348",
    ("syt", 3, 3): "7925b7a063d26db4",
    ("endpoint_1_0", 3, 3): "9da751abf58e0ea5",
    ("endpoint_0_1", 3, 3): "8fb37a84c205f593",
    ("endpoint_2_1", 3, 3): "158934dc4cabb5ea",
    ("endpoint_1_2", 3, 3): "84b265ec1ef6449d",
    ("catalan_corrupted", 2, 2): "296103b9da94c022",
}


def guess_series(name):
    diagonal = tandem_step_set(TandemModel(1, 1, 1))
    if name == "excursions_2_1_1":
        return count_excursions(tandem_step_set(TandemModel(2, 1, 1)), 239).values
    if name == "motzkin":
        return count_walks_total(diagonal, 249).values
    if name == "syt":
        return count_excursions(diagonal, 3 * 59).values[::3]
    if name.startswith("endpoint"):
        target = tuple(int(c) for c in name.split("_")[1:])
        return count_endpoint(diagonal, 149, target).values
    catalan = [1]
    for n in range(29):
        catalan.append(catalan[-1] * (4 * n + 2) // (n + 2))
    return catalan[:20] + [c + 1 for c in catalan[20:]]


@pytest.mark.parametrize("name, order, degree", sorted(GUESS_ROWS))
def test_guess_json_keeps_its_digest(capsys, tmp_path, name, order, degree):
    series = tmp_path / "series.csv"
    series.write_text("".join(f"{t}\n" for t in guess_series(name)))
    argv = ["guess", "--series", str(series), "--max-order", str(order),
            "--max-degree", str(degree)]
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == GUESS_ROWS[name, order, degree]
