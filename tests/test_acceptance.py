"""End-to-end acceptance checks: ten criteria, one printed verdict line each.

Every test prints exactly one `ACCEPTANCE nn PASS/FAIL - ...` line (visible
with -s, or in the captured output on failure) and then asserts, so a plain
pytest run over this module doubles as the acceptance report.
"""

import time
from fractions import Fraction
from math import isclose, log

from tandemwalks import (
    BallotModel,
    CountSequence,
    Recurrence,
    TandemModel,
    ballot_to_tandem,
    bijection,
    count_ballot_3d,
    count_excursions,
    count_grid_excursions,
    count_walks_total,
    estimate_alpha,
    exponent_report,
    guess_recurrence,
    search_triples,
    tandem_step_set,
    verify_recurrence,
)
from tandemwalks.cli import run

from conftest import (
    TABLE1_EXPECTED,
    TABLE2_QUINTUPLES,
    Walk2,
    cone_walks_3d,
    coprime_triples,
    empirical_period,
    generate_ballot_walks,
    map_walk_2to3,
    map_walk_3to2,
    solve_critical_point,
    step_polynomial,
    swapped,
)

WALK_LEVEL_CAP = 20000


def _verdict(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def test_criterion_01_exponent_table(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "table1.csv"
    ok = run(["table1", "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    elapsed = time.perf_counter() - t0
    ok = ok and lines[0] == "a,b,c,A,B,C,gamma_sq,alpha,alpha_closed_form,verdict"
    ok = ok and len(lines) == 16
    for row, (ballot, tandem, gsq, alpha, tol) in zip(lines[1:], TABLE1_EXPECTED):
        f = row.split(",")
        ok = ok and tuple(map(int, f[0:3])) == ballot
        ok = ok and tuple(map(int, f[3:6])) == tandem
        ok = ok and f[6] == f"{gsq.numerator}/{gsq.denominator}"
        if tol == 0.0:
            ok = ok and float(f[7]) == alpha
        else:
            ok = ok and abs(float(f[7]) - alpha) <= tol
    ok = ok and elapsed < 1.0
    _verdict(1, ok, f"15-model exponent table reproduced exactly in {elapsed:.2f}s")


def test_criterion_02_dfiniteness_verdicts():
    t0 = time.perf_counter()
    ok = True
    for _, tandem, gsq, _, _ in TABLE1_EXPECTED:
        rep = exponent_report(TandemModel(*tandem))
        ok = ok and rep.gamma_sq == gsq
        if tandem == (1, 1, 1):
            ok = ok and rep.dfiniteness == "known_dfinite"
            ok = ok and rep.alpha_exact == Fraction(-4) and rep.alpha == -4.0
        else:
            ok = ok and rep.dfiniteness == "not_dfinite_proven"
            ok = ok and rep.rationality == "irrational" and rep.alpha_exact is None
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(2, ok, f"non-D-finiteness verdicts for all 15 models in {elapsed:.2f}s")


def test_criterion_03_rational_classes():
    t0 = time.perf_counter()
    ok = True
    for r, quintuple in TABLE2_QUINTUPLES.items():
        hits = search_triples(r, 50)
        found = {(m.A, m.B, m.C) for m in hits}
        for triple in quintuple:
            if max(triple) <= 50:
                ok = ok and triple in found
                ok = ok and tuple(reversed(triple)) in found
        for m in hits:
            rep = exponent_report(m)
            ok = ok and rep.gamma_sq == r
            ok = ok and rep.rationality == "rational"
    wide = {(m.A, m.B, m.C) for m in search_triples(Fraction(3, 4), 60)}
    ok = ok and (4, 60, 15) in wide and (15, 60, 4) in wide
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(3, ok, f"rational-exponent searches match the published members in {elapsed:.2f}s")


def test_criterion_04_bijection_all_models():
    t0 = time.perf_counter()
    ok = True
    for ballot_t, _, _, _, _ in TABLE1_EXPECTED:
        ballot = BallotModel(*ballot_t)
        tandem = ballot_to_tandem(ballot)
        p = ballot.period
        # cone walks by the dictionary oracle and by the pinned ballot plan,
        # against (x, y) excursions on the quadrant plan
        seq3 = cone_walks_3d(ballot, 2)
        ok = ok and count_ballot_3d(ballot, 2).values == seq3
        seq2 = count_grid_excursions(tandem_step_set(tandem), 2 * p)
        for n in (1, 2):
            c3 = seq3[n]
            ok = ok and c3 == seq2.values[p * n]
            if c3 <= WALK_LEVEL_CAP:
                # the array check the command line runs, and its rows against
                # the one-object-per-walk oracle
                words = bijection.generate_ballot_walks(ballot, n)
                images = bijection.map_walk_3to2(words)
                ok = ok and bijection.bijection_failure(ballot, words, images, c3) is None
                walks3 = generate_ballot_walks(ballot, n)
                walks2 = [map_walk_3to2(w) for w in walks3]
                ok = ok and [row.tobytes().decode() for row in words] == [w.steps for w in walks3]
                ok = ok and [row.tobytes().decode() for row in images] == [w.steps for w in walks2]
                ok = ok and len({w.steps for w in walks2}) == c3
                ok = ok and all(w.is_excursion() for w in walks2)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(4, ok, f"3D/2D counts agree for rounds 1-2 of all 15 models in {elapsed:.1f}s")


def test_criterion_05_reversal_symmetry():
    t0 = time.perf_counter()
    ok = True
    for triple in coprime_triples(5):
        m = TandemModel(*triple)
        n_max = 3 * m.period
        e = count_excursions(tandem_step_set(m), n_max)
        e_rev = count_excursions(tandem_step_set(swapped(m)), n_max)
        ok = ok and e.values == e_rev.values
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(5, ok, f"excursion reversal symmetry for all coprime triples <= 5 in {elapsed:.1f}s")


def test_criterion_06_critical_points():
    t0 = time.perf_counter()
    ok = True
    for triple in coprime_triples(10):
        m = TandemModel(*triple)
        s = tandem_step_set(m)
        rep = exponent_report(m)
        X, Y = rep.x, rep.y
        xs, ys = solve_critical_point(s)
        ok = ok and isclose(X, xs, rel_tol=1e-10) and isclose(Y, ys, rel_tol=1e-10)
        sx = sum(i * X ** (i - 1) * Y**j for i, j in s.steps)
        sy = sum(j * X**i * Y ** (j - 1) for i, j in s.steps)
        ok = ok and abs(sx) <= 1e-10 and abs(sy) <= 1e-10
        ok = ok and isclose(step_polynomial(s, X, Y), rep.mu, rel_tol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(6, ok, f"numeric critical points match closed forms up to bound 10 in {elapsed:.1f}s")


def test_criterion_07_numeric_exponent_fits():
    t0 = time.perf_counter()
    m1 = TandemModel(1, 1, 1)
    seq1 = count_excursions(tandem_step_set(m1), 1200, "logfloat", 10**9)
    fit1 = estimate_alpha(seq1, m1.period)
    dev1 = abs(fit1.alpha_final - -4.0)
    ok = dev1 < 0.02
    ok = ok and abs(fit1.mu_final - 3.0) < 0.01

    m2 = TandemModel(2, 1, 1)
    rep2 = exponent_report(m2)
    seq2 = count_excursions(tandem_step_set(m2), 1000, "logfloat", 10**9)
    fit2 = estimate_alpha(seq2, m2.period)
    dev2 = abs(fit2.alpha_final - rep2.alpha)
    ok = ok and dev2 < 0.05
    ok = ok and abs(fit2.mu_final - rep2.mu) < 0.01 * rep2.mu
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 240.0
    _verdict(
        7, ok,
        f"fitted alpha deviates {dev1:.2e} / {dev2:.2e} "
        f"from the closed forms in {elapsed:.1f}s",
    )


def test_criterion_08_guess_diagonal_recurrence():
    t0 = time.perf_counter()
    m = TandemModel(1, 1, 1)
    seq = count_excursions(tandem_step_set(m), 3 * 129)
    terms = [seq.values[3 * k] for k in range(130)]
    rec = guess_recurrence(terms[:30], 3, 3)
    ok = rec == Recurrence(1, 2, ((-6, -27, -27), (6, 5, 1)))
    ok = ok and verify_recurrence(rec, terms)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(8, ok, f"order-1 degree-2 recurrence guessed and verified on 130 terms in {elapsed:.1f}s")


def test_criterion_09_no_recurrence_for_small_steps():
    t0 = time.perf_counter()
    seq = count_walks_total(tandem_step_set(TandemModel(2, 6, 3)), 299)
    rec = guess_recurrence(list(seq.values), 10, 10)
    elapsed = time.perf_counter() - t0
    ok = rec is None and elapsed < 900.0
    _verdict(9, ok, f"no recurrence up to order+degree 20 on 300 terms of (2,6,3) in {elapsed:.1f}s")


def test_criterion_10_property_bundle(tmp_path):
    t0 = time.perf_counter()
    # walk-level round trip
    ballot = BallotModel(2, 3, 6)
    words = bijection.generate_ballot_walks(ballot, 1)
    images = bijection.map_walk_3to2(words)
    tandem = ballot_to_tandem(ballot)
    ok = len(words) == cone_walks_3d(ballot, 1)[1]
    ok = ok and all(
        map_walk_2to3(Walk2(tandem, image.tobytes().decode())).steps == word.tobytes().decode()
        for word, image in zip(words, images)
    )

    # periodicity of the excursion support
    m = TandemModel(3, 2, 1)
    p = m.period
    seq = count_excursions(tandem_step_set(m), 4 * p)
    ok = ok and empirical_period(seq) == p
    ok = ok and all(v == 0 for n, v in enumerate(seq.values) if n % p)

    # estimator exactness on a synthetic pure power law
    kappa, mu, alpha, q = 2.3, 2.87, -3.7312, 5
    values = [0.0 if n == 0 else
              (log(kappa) + n * log(mu) + alpha * log(n) if n % q == 0 else float("-inf"))
              for n in range(q * 120 + 1)]
    synth = CountSequence("logfloat", tuple(values))
    fit = estimate_alpha(synth, q)
    ok = ok and abs(fit.alpha_final - alpha) < 1e-6
    ok = ok and abs(fit.mu_final - mu) < 1e-8

    # held-out verification blocks recurrences fitted to a corrupted prefix
    catalan = [1]
    for n in range(29):
        catalan.append(catalan[-1] * (4 * n + 2) // (n + 2))
    corrupted = catalan[:20] + [c + 1 for c in catalan[20:]]
    ok = ok and guess_recurrence(corrupted, 2, 2) is None

    # thread count never changes CLI bytes
    f1, f4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    base = ["enumerate", "--model", "3,2,1", "--n-max", "60", "--mode", "logfloat"]
    ok = ok and run(base + ["--threads", "1", "--output", str(f1)]) == 0
    ok = ok and run(base + ["--threads", "4", "--output", str(f4)]) == 0
    ok = ok and f1.read_text() == f4.read_text()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(10, ok, f"bundled invariants (bijection, period, fit, guard, threads) in {elapsed:.1f}s")
