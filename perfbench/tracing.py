"""Spans around rdlearn's public functions, recorded from the benchmark side.

For the length of one traced round, every function in TARGETS is replaced
(on its class, or in every rdlearn module that holds a reference to it)
by a wrapper that records a span: its name, start, end, parent span and
up to two work counts. The program itself is not edited. Spans stay in
memory and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import csv
import importlib
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _batch_rows(self, u, *rest, **kw):
    u = np.asarray(u)
    return (1 if u.ndim <= 1 else int(u.shape[0])), 0


def _points(self, x, *rest, **kw):
    return int(np.size(x)), 0


def _solve_work(f, D, u0, grid, *rest, **kw):
    return int(np.prod(grid.nodes)) * grid.steps, grid.steps


def _halton_points(n, *rest, **kw):
    return int(n), 0


def _level_outcome(result):
    return result.iterations, int(result.converged)


@dataclass(frozen=True)
class Target:
    """One traced function: where it lives and how its work is counted.

    `count` sees the call's arguments, `after` its result; each returns
    the pair (n, aux) stored on the span.
    """

    module: str
    attr: str
    span: str
    owner: str | None = None
    count: Callable | None = None
    after: Callable | None = None


TARGETS = (
    Target("rdlearn.transition", "evaluate", "transition.evaluate", "TransitionFunction", _points),
    Target("rdlearn.transition", "derivative", "transition.derivative", "TransitionFunction", _points),
    Target("rdlearn.reaction", "eval", "reaction.mlp_eval", "MLPReaction", _batch_rows),
    Target("rdlearn.reaction", "jacobian", "reaction.mlp_jacobian", "MLPReaction", _batch_rows),
    Target("rdlearn.reaction", "vjp", "reaction.mlp_vjp", "MLPReaction", _batch_rows),
    Target("rdlearn.reaction", "jac_vjp", "reaction.mlp_jac_vjp", "MLPReaction", _batch_rows),
    Target("rdlearn.reaction", "eval", "reaction.analytic_eval", "AnalyticReaction", _batch_rows),
    Target("rdlearn.consistency", "eval", "consistency.eval", "ConsistentReaction", _batch_rows),
    Target("rdlearn.consistency", "jacobian", "consistency.jacobian", "ConsistentReaction", _batch_rows),
    Target("rdlearn.consistency", "value_vjp", "consistency.value_vjp", "ConsistentReaction", _batch_rows),
    Target("rdlearn.consistency", "jac_vjp", "consistency.jac_vjp", "ConsistentReaction", _batch_rows),
    Target("rdlearn.consistency", "consistency_constants", "consistency.constants", "ConsistentReaction"),
    Target("rdlearn.consistency", "wrap", "consistency.wrap"),
    Target("rdlearn.learn", "objective", "learn.objective", "AllAtOnceProblem"),
    Target("rdlearn.learn", "gradient", "learn.gradient", "AllAtOnceProblem"),
    Target("rdlearn.learn", "solve_level", "learn.solve_level", after=_level_outcome),
    Target("rdlearn.learn", "identification_sweep", "learn.identification_sweep"),
    Target("rdlearn.rdsolve", "solve", "rdsolve.solve", count=_solve_work),
    Target("rdlearn.rdsolve", "estimate_mass_tolerance", "rdsolve.estimate_mass_tolerance"),
    Target("rdlearn.rdsolve", "mass_audit", "rdsolve.mass_audit"),
    Target("rdlearn.cli", "load", "cli.config", "ExperimentConfig"),
    Target("rdlearn.cli", "write_csv", "cli.write_csv", "OutputDir"),
    Target("rdlearn.cli", "finish", "cli.finish", "OutputDir"),
    Target("rdlearn.cli", "main", "cli.main"),
    Target("rdlearn.reaction", "save_params", "reaction.save_params"),
    Target("rdlearn._sampling", "halton_box", "sampling.halton_box", count=_halton_points),
)

SPAN_FIELDS = ("round", "id", "parent", "name", "start_s", "end_s", "n", "aux")


class Tracer:
    """Keeps spans in memory; `installed` turns tracing on for a block of
    one round (a round may enter it once per item)."""

    def __init__(self):
        self.spans: list[list] = []
        self.round_starts: dict[int, float] = {}
        self._stack: list[list] = []
        self._round = -1

    def enter(self, name: str, n: int = 0, aux: int = 0) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        span = [self._round, len(self.spans), parent, name, 0.0, 0.0, n, aux]
        self.spans.append(span)
        self._stack.append(span)
        span[4] = perf_counter()
        return span

    def exit(self, span: list) -> None:
        span[5] = perf_counter()
        self._stack.pop()

    def _wrapper(self, target: Target, fn):
        if target.span == "cli.write_csv":
            return self._write_csv_wrapper(fn)
        tracer = self

        def traced(*args, **kw):
            n, aux = target.count(*args, **kw) if target.count else (0, 0)
            span = tracer.enter(target.span, n, aux)
            try:
                result = fn(*args, **kw)
            finally:
                tracer.exit(span)
            if target.after:
                span[6], span[7] = target.after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _write_csv_wrapper(self, fn):
        """Counts rows as the program consumes them and bytes once written."""
        tracer = self

        def traced(out, name, header, rows):
            seen = [0]

            def counted():
                for row in rows:
                    seen[0] += 1
                    yield row

            span = tracer.enter("cli.write_csv")
            try:
                path = fn(out, name, header, counted())
            finally:
                tracer.exit(span)
            span[6], span[7] = seen[0], os.path.getsize(path)
            return path

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, round_index: int):
        """Wrap every target for the duration of the block, then restore."""
        self._round = round_index
        self.round_starts.setdefault(round_index, perf_counter())
        undo = []
        try:
            for target in TARGETS:
                module = importlib.import_module(target.module)
                if target.owner is not None:
                    owner = getattr(module, target.owner)
                    original = owner.__dict__[target.attr]
                    undo.append((owner, target.attr, original))
                    if isinstance(original, classmethod):
                        wrapper = classmethod(self._wrapper(target, original.__func__))
                    else:
                        wrapper = self._wrapper(target, original)
                    setattr(owner, target.attr, wrapper)
                    continue
                original = getattr(module, target.attr)
                wrapper = self._wrapper(target, original)
                for name, mod in list(sys.modules.items()):
                    if name != "rdlearn" and not name.startswith("rdlearn."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self._round = -1

    def round_summary(self, round_index: int) -> dict:
        """Per span name: calls, summed counts, self and inclusive seconds,
        plus the summed duration of the round's top-level spans."""
        spans = [s for s in self.spans if s[0] == round_index]
        child = {}
        for s in spans:
            if s[2] >= 0:
                child[s[2]] = child.get(s[2], 0.0) + (s[5] - s[4])
        out: dict[str, dict] = {}
        top = 0.0
        for s in spans:
            dur = s[5] - s[4]
            if s[2] < 0:
                top += dur
            row = out.setdefault(s[3], {"calls": 0, "n": 0, "aux": 0, "self_s": 0.0, "s": 0.0})
            row["calls"] += 1
            row["n"] += s[6]
            row["aux"] += s[7]
            row["self_s"] += dur - child.get(s[1], 0.0)
            row["s"] += dur
        return {"spans": out, "top_level_s": top}

    def write(self, path: str) -> None:
        """All spans as CSV, times relative to the start of their round."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SPAN_FIELDS)
            for s in self.spans:
                t0 = self.round_starts[s[0]]
                writer.writerow(s[:4] + [f"{s[4] - t0:.9f}", f"{s[5] - t0:.9f}"] + s[6:])
