"""Per-layer spans, recorded from outside the program.

``install`` replaces the library functions that ``tandemwalks.cli`` calls with
wrappers that record a span (layer, start, end, parent span) and a work count
per call.  Only the traced run installs them; the untraced run that gives the
end-to-end metrics calls the program unwrapped.  Spans stay in memory and are
summarised once the round ends.
"""

from __future__ import annotations

import inspect
from time import perf_counter
from types import SimpleNamespace

import reference as ref

# per-layer metrics, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("enumeration.logfloat_pinned.busy_s", "s"),
    ("enumeration.logfloat_pinned.dense_cells_per_s", "cells/s"),
    ("enumeration.exact_pinned.busy_s", "s"),
    ("enumeration.exact_pinned.dense_cells_per_s", "cells/s"),
    ("enumeration.exact_total.busy_s", "s"),
    ("enumeration.exact_total.dense_cells_per_s", "cells/s"),
    ("enumeration.ballot3d.busy_s", "s"),
    ("bijection.busy_s", "s"),
    ("fit.busy_s", "s"),
    ("exponent.busy_s", "s"),
    ("guess.exhausted.busy_s", "s"),
    ("guess.exhausted.s_per_grid_cell", "s/cell"),
    ("guess.found.busy_s", "s"),
    ("cli.busy_s", "s"),
    ("cli.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, work]
        self._stack: list[int] = []

    def wrap(self, fn, classify):
        """fn with a span per call; classify(bound args, result) -> (layer, work)."""
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = [None, 0.0, 0.0, self._stack[-1] if self._stack else None, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span[0], span[4] = classify(bound.arguments, result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        busy: dict[str, float] = {}
        work: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, count in self.spans:
            busy[layer] = busy.get(layer, 0.0) + (end - start)
            work[layer] = work.get(layer, 0) + count
            if parent is not None:
                child_time[parent] += end - start
        cli_self = sum(
            end - start - child_time[i]
            for i, (layer, start, end, _, _) in enumerate(self.spans)
            if layer == "cli"
        )
        out = {}
        for name, _ in LAYER_METRICS:
            layer, _, metric = name.rpartition(".")
            t = busy.get(layer, 0.0)
            if metric == "busy_s":
                out[name] = t
            elif metric == "dense_cells_per_s":
                out[name] = work.get(layer, 0) / t if t else 0.0
            elif metric == "s_per_grid_cell":
                out[name] = t / work[layer] if work.get(layer) else 0.0
        out["cli.self_s"] = cli_self
        return out


def _pinned(args, _result):
    return f"enumeration.{args['mode']}_pinned", ref.dense_cells(args["s"].steps, args["n_max"])


def _total(args, _result):
    return f"enumeration.{args['mode']}_total", ref.dense_cells(args["s"].steps, args["n_max"])


def _guess(args, result):
    layer = "guess.exhausted" if result is None else "guess.found"
    return layer, args["max_order"] * (args["max_degree"] + 1)


def _fixed(layer):
    return lambda _args, _result: (layer, 0)


def install(tracer: Tracer, cli, lib: SimpleNamespace) -> None:
    """Wrap the functions cli calls, in cli's namespace and in ``lib``."""
    classify = {
        "count_excursions": _pinned,
        "count_endpoint": _pinned,
        "count_walks_total": _total,
        "count_ballot_3d": _fixed("enumeration.ballot3d"),
        "generate_ballot_walks": _fixed("bijection"),
        "estimate_alpha": _fixed("fit"),
        "exponent_report": _fixed("exponent"),
        "guess_recurrence": _guess,
    }
    for name, how in classify.items():
        traced = tracer.wrap(getattr(cli, name), how)
        setattr(cli, name, traced)
        setattr(lib, name, traced)
    # map_walk_3to2 runs once per walk: a light wrapper without argument binding
    plain = cli.map_walk_3to2

    def map_walk_3to2(w):
        span = [None, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, 0]
        span[1] = perf_counter()
        result = plain(w)
        span[2] = perf_counter()
        span[0] = "bijection"
        tracer.spans.append(span)
        return result

    cli.map_walk_3to2 = map_walk_3to2
    cli.run = tracer.wrap(cli.run, _fixed("cli"))
