"""The four workloads: their inputs (picked by the seed), CLI calls and checks.

A workload object is built from the seed and a scratch directory.  ``setup``
writes the input files, ``calls`` lists the CLI invocations the benchmark
times, and ``check`` compares the outputs with reference.py, returning
(check, input, detail) triples for every mismatch.  The seed changes which
models, windows and orders are used, not the amount of work: the models it
picks between have the same dense-cell count, and a window offset moves the
end of a generated series by at most 15 terms.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import exp, lcm
from pathlib import Path

import reference as ref

THREADS = "2"  # the machine's core count; ignored by the program today

# the 15 models of the paper's exponent table, as tandem triples
TABLE1 = (
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1),
    (3, 2, 2), (3, 3, 1), (3, 3, 2), (4, 1, 1), (4, 2, 1),
    (4, 3, 1), (4, 3, 2), (4, 3, 3), (4, 4, 1), (4, 4, 3),
)


def _model_arg(model) -> str:
    return ",".join(map(str, model))


def _tandem(ballot) -> tuple[int, int, int]:
    """The tandem triple (M/a, M/b, M/c), M = lcm(a, b, c), of a ballot triple."""
    M = lcm(*ballot)
    return tuple(M // v for v in ballot)


@dataclass
class Call:
    label: str  # the input, as named in failure reports
    argv: list[str]
    output: Path


def _read_csv_counts(path: Path) -> list[int]:
    lines = path.read_text().splitlines()
    if lines[0] != "n,count":
        raise ValueError(f"unexpected header {lines[0]!r}")
    out = []
    for n, line in enumerate(lines[1:]):
        k, v = line.split(",")
        if int(k) != n:
            raise ValueError(f"row {n} is labelled {k}")
        out.append(int(v))
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work = work

    def setup(self, lib) -> None:
        """Write input files; ``lib`` holds the library functions setup may call."""

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def check(self, calls: list[Call]) -> list[tuple[str, str, str]]:
        raise NotImplementedError

    def _out(self, stem: str) -> Path:
        return self.work / stem


class FitLogfloat(Workload):
    """fit in logfloat mode: (1,1,1) at n = 1200, then one non-D-finite model.

    The seed picks the second model among four whose lattice-compressed grids
    have the same shape at n = 560 ((3,1,1) and (3,2,2): dxm = 3, dym = 1;
    (3,3,1) and (3,3,2): dxm = 1, dym = 3), so the swept cells are identical.
    """

    name = "fit_logfloat"
    MAIN = ((1, 1, 1), 399)  # n = 3 * (399 + 1) = 1200
    MENU = ((3, 1, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2))
    OTHER_N = 560
    CELL_BUDGET = "1000000000"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        other = self.rng.choice(self.MENU)
        self.models = [self.MAIN, (other, self.OTHER_N // ref.period(other) - 1)]

    def calls(self):
        out = []
        for model, m_max in self.models:
            label = f"fit --model {_model_arg(model)} --m-max {m_max}"
            path = self._out(f"fit_{'_'.join(map(str, model))}.json")
            out.append(Call(label, [
                "fit", "--model", _model_arg(model), "--m-max", str(m_max), "--format", "json",
                "--cell-budget", self.CELL_BUDGET, "--threads", THREADS, "--output", str(path),
            ], path))
        return out

    def check(self, calls):
        bad = []
        for (model, _), call in zip(self.models, calls):
            r = json.loads(call.output.read_text())
            alpha, mu = ref.alpha(model), exp(ref.log_mu(model))
            if abs(r["alpha_reference"] - alpha) > 1e-12:
                bad.append(("alpha_reference", call.label, f"{r['alpha_reference']} vs {alpha}"))
            if model == (1, 1, 1):
                ok_alpha = abs(r["alpha_final"] + 4.0) <= 0.02
                ok_mu = abs(r["mu_final"] / 3.0 - 1.0) <= 0.01
            else:  # the numeric-fit tolerances of acceptance criterion 07
                ok_alpha = abs(r["alpha_final"] - alpha) < 0.05
                ok_mu = abs(r["mu_final"] - mu) < 0.01 * mu
            if not ok_alpha:
                bad.append(("alpha_fit", call.label, f"alpha_hat {r['alpha_final']} vs {alpha}"))
            if not ok_mu:
                bad.append(("mu_fit", call.label, f"mu_hat {r['mu_final']} vs {mu}"))
        return bad


class ExcursionsExact(Workload):
    """Exact excursions of the 15 table models and their reversal partners.

    Each pair (A,B,C), (C,B,A) gets the largest length n, a multiple of the
    period, at which the two sweeps together stay within PAIR_CELLS dense
    cells.  bijection-check maps every walk of up to WALK_CAP per round for
    the ballot triples in BIJECTION.  The seed shuffles the order of the pairs,
    of the models in each pair and of the bijection checks.
    """

    name = "excursions_exact"
    PAIR_CELLS = 3_000_000
    BIJECTION = (((1, 1, 1), 5), ((1, 2, 2), 3), ((1, 1, 2), 4), ((1, 1, 3), 4))
    WALK_CAP = "20000"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        pairs = []
        for model in TABLE1:
            partner = model[::-1]
            p = ref.period(model)
            n = p
            while (ref.dense_cells(ref.tandem_steps(model), n + p)
                   + ref.dense_cells(ref.tandem_steps(partner), n + p)) <= 2 * self.PAIR_CELLS:
                n += p
            pairs.append([(model, n)] if partner == model else [(model, n), (partner, n)])
        self.rng.shuffle(pairs)
        for pair in pairs:
            self.rng.shuffle(pair)
        self.runs = [run for pair in pairs for run in pair]
        self.bijection = self.rng.sample(self.BIJECTION, len(self.BIJECTION))

    def calls(self):
        out = []
        for model, n in self.runs:
            path = self._out(f"exc_{'_'.join(map(str, model))}.csv")
            out.append(Call(f"enumerate --model {_model_arg(model)} --n-max {n}", [
                "enumerate", "--model", _model_arg(model), "--what", "excursions",
                "--n-max", str(n), "--threads", THREADS, "--output", str(path),
            ], path))
        for ballot, rounds in self.bijection:
            path = self._out(f"bij_{'_'.join(map(str, ballot))}.txt")
            out.append(Call(f"bijection-check --ballot {_model_arg(ballot)} --rounds {rounds}", [
                "bijection-check", "--ballot", _model_arg(ballot), "--rounds", str(rounds),
                "--walk-cap", self.WALK_CAP, "--output", str(path),
            ], path))
        return out

    def check(self, calls):
        bad = []
        counts = {}
        for (model, n), call in zip(self.runs, calls):
            terms = _read_csv_counts(call.output)
            counts[model] = terms
            if len(terms) != n + 1:
                bad.append(("length", call.label, f"{len(terms)} terms"))
                continue
            bad += _mod_p_mismatch(call.label, terms, ref.walk_counts_mod_p(model, n))
            if model == (1, 1, 1):
                syt = [ref.syt_three_rows(k // 3) if k % 3 == 0 else 0 for k in range(n + 1)]
                if terms != syt:
                    bad.append(("hook_length", call.label, "e_3n differs from 2(3n)!/(n!(n+1)!(n+2)!)"))
        for (model, _), call in zip(self.runs, calls):
            partner = model[::-1]
            if model < partner and counts.get(model) != counts.get(partner):
                bad.append(("reversal", call.label, f"differs from ({_model_arg(partner)})"))
        for (ballot, rounds), call in zip(self.bijection, calls[len(self.runs):]):
            lines = call.output.read_text().splitlines()
            model = _tandem(ballot)
            p = ref.period(model)
            want = ref.walk_counts_mod_p(model, p * rounds)
            got = []
            for line in lines:
                head, _, tail = line.partition(": count ")
                value, _, status = tail.partition(" ")
                got.append((head, int(value) % ref.PRIME, status.split(",")[0]))
            if got != [(f"round {k}", want[p * k], "ok") for k in range(1, rounds + 1)]:
                bad.append(("bijection", call.label, f"output {lines!r}"))
        return bad


def _write_terms(path: Path, terms) -> None:
    path.write_text("".join(f"{t}\n" for t in terms))


def _mod_p_mismatch(label, terms, residues) -> list[tuple[str, str, str]]:
    for k, (got, want) in enumerate(zip(terms, residues)):
        if got % ref.PRIME != want:
            return [("mod_p", label, f"term {k} = {got} disagrees with the reference DP mod 2^61-1")]
    return []


class TotalExact(Workload):
    """Exact free-endpoint counts: (1,1,1) at n = 600, then one table model.

    The seed picks the second model between (3,2,2) and (3,3,2), whose
    compressed grids are transposes of each other (dxm, dym = 3, 1 and 1, 3),
    so the swept cells are identical.
    """

    name = "total_exact"
    MAIN = ((1, 1, 1), 600)
    MENU = ((3, 2, 2), (3, 3, 2))
    OTHER_N = 250

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.runs = [self.MAIN, (self.rng.choice(self.MENU), self.OTHER_N)]

    def calls(self):
        out = []
        for model, n in self.runs:
            path = self._out(f"total_{'_'.join(map(str, model))}.csv")
            out.append(Call(f"enumerate --model {_model_arg(model)} --what total --n-max {n}", [
                "enumerate", "--model", _model_arg(model), "--what", "total",
                "--n-max", str(n), "--threads", THREADS, "--output", str(path),
            ], path))
        return out

    def check(self, calls):
        bad = []
        for (model, n), call in zip(self.runs, calls):
            q = _read_csv_counts(call.output)
            if len(q) != n + 1:
                bad.append(("length", call.label, f"{len(q)} terms"))
                continue
            if model == (1, 1, 1):
                if q != ref.motzkin(n):
                    bad.append(("motzkin", call.label, "(1,1,1) totals differ from the Motzkin numbers"))
            else:
                bad += _mod_p_mismatch(call.label, q, ref.walk_counts_mod_p(model, n, None))
            if q[0] != 1 or any(not 0 < b <= 3 * a for a, b in zip(q, q[1:])):
                bad.append(("growth", call.label, "q_0 != 1 or some q_{n+1} outside (0, 3 q_n]"))
        return bad


class GuessSearch(Workload):
    """guess on one non-D-finite series (grid exhausted) and six D-finite ones.

    (a) 240 excursion counts e_s.. of (2,1,1) (EXHAUST), searched on a 10x10
    grid; the seed picks the offset s among multiples of the period 5.
    (b) (1,1,1) series on a 3x3 grid: the SYT numbers e_3n, the Motzkin
    totals and the counts of walks to four endpoints, each a window of
    consecutive terms at a seed-picked offset (a multiple of 3 for endpoint
    series, whose support has period 3).  EXTRA further terms of every
    D-finite series are kept back to check the returned recurrence on.
    """

    name = "guess_search"
    EXHAUST = ((2, 1, 1), 240)
    FOUND_TERMS = {"syt": 60, "motzkin": 250, "endpoint": 150}
    TARGETS = ((1, 0), (0, 1), (2, 1), (1, 2))
    EXTRA = 20

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.exhaust_offset = 5 * self.rng.randrange(4)
        self.series = {"syt": self.rng.randrange(4), "motzkin": self.rng.randrange(4)}
        for target in self.TARGETS:
            self.series[target] = 3 * self.rng.randrange(4)

    def _path(self, key, kind="series") -> Path:
        stem = key if isinstance(key, str) else f"endpoint_{key[0]}_{key[1]}"
        return self._out(f"{kind}_{stem}.csv")

    def setup(self, lib):
        model, n_terms = self.EXHAUST
        s = self.exhaust_offset
        e = lib.count_excursions(lib.tandem_step_set(lib.TandemModel(*model)), s + n_terms - 1)
        _write_terms(self._path("nondf"), e.values[s:])
        steps = lib.tandem_step_set(lib.TandemModel(1, 1, 1))
        for key, s in self.series.items():
            n = self._terms(key) + self.EXTRA
            if key == "syt":
                e = lib.count_excursions(steps, 3 * (s + n - 1)).values
                terms = [e[3 * k] for k in range(s, s + n)]
            elif key == "motzkin":
                terms = lib.count_walks_total(steps, s + n - 1).values[s:]
            else:
                terms = lib.count_endpoint(steps, s + n - 1, key).values[s:]
            _write_terms(self._path(key), terms[: n - self.EXTRA])
            _write_terms(self._path(key, "kept"), terms)

    def _terms(self, key) -> int:
        return self.FOUND_TERMS[key if isinstance(key, str) else "endpoint"]

    def calls(self):
        out = [self._guess("nondf", 10, 10)]
        out += [self._guess(key, 3, 3) for key in self.series]
        return out

    def _guess(self, key, order, degree) -> Call:
        src = self._path(key)
        path = src.with_suffix(".json")
        return Call(f"guess --series {src.name} --max-order {order} --max-degree {degree}", [
            "guess", "--series", str(src), "--max-order", str(order),
            "--max-degree", str(degree), "--output", str(path),
        ], path)

    def check(self, calls):
        bad = []
        r = json.loads(calls[0].output.read_text())
        grid = {(o, d) for o in range(1, 11) for d in range(11)}
        if r["found"] or {tuple(c) for c in r["searched_grid"]} != grid:
            bad.append(("not_dfinite", calls[0].label,
                        f"found={r['found']}, {len(r['searched_grid'])} grid cells searched"))
        for (key, s), call in zip(self.series.items(), calls[1:]):
            terms = [int(t) for t in self._path(key, "kept").read_text().split()]
            n = len(terms)
            if n != self._terms(key) + self.EXTRA:
                bad.append(("series", call.label, f"{n} terms kept"))
                continue
            if key == "syt":
                exact = terms == [ref.syt_three_rows(k) for k in range(s, s + n)]
            elif key == "motzkin":
                exact = terms == ref.motzkin(s + n - 1)[s:]
            else:
                exact = not _mod_p_mismatch("", terms, ref.walk_counts_mod_p((1, 1, 1), s + n - 1, key)[s:])
            if not exact:
                bad.append(("series", call.label, "setup series differs from the reference"))
                continue
            r = json.loads(call.output.read_text())
            if not r["found"] or r["order"] > 3:
                bad.append(("found", call.label, f"found={r['found']}, order={r['order']}"))
                continue
            coeffs = tuple(tuple(int(c) for c in poly) for poly in r["coefficients"])
            if any(ref.recurrence_residuals(coeffs, terms)):
                bad.append(("held_out", call.label, "recurrence fails on the terms kept back"))
            if key == "syt" and coeffs != ref.syt_recurrence(s):
                bad.append(("hook_ratio", call.label, f"{coeffs} != {ref.syt_recurrence(s)}"))
        return bad


WORKLOADS = {w.name: w for w in (FitLogfloat, ExcursionsExact, TotalExact, GuessSearch)}
