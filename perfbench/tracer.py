"""Spans recorded from outside the gkhyper package.

The tracer wraps the package's public functions and the class-level matvec
methods of ``LinearOperatorHandle``; the package itself is not edited. Spans
are kept in memory as (name, parent, start, end, attrs) and written out by the
caller once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

# (home module, function name, span name); the wrapper replaces the function
# in every loaded gkhyper module that holds it, so calls made through names
# imported elsewhere (e.g. ``gengk_bidiag`` in marginal, estimate and cli) are
# seen too
TRACED_FUNCTIONS = (
    ("problems", "build_heat_problem", "problems.build"),
    ("problems", "build_ray_tomo_problem", "problems.build"),
    ("covariance", "build_cov_operator", "covariance.build"),
    ("gengk", "gengk_bidiag", "gengk.bidiag"),
    ("marginal", "objective_gengk", "marginal.objective"),
    ("marginal", "objective_exact", "marginal.exact"),
    ("monitor", "mc_xi_estimate", "monitor.mc_xi"),
    ("estimate", "optimize_hyperparams", "estimate.optimizer"),
    ("estimate", "map_reconstruct", "estimate.reconstruct"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of execution."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.clock()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, **attrs) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must close in the order they were opened")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        span.attrs.update(attrs)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans = []


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(i, []) if e > span.start and s < span.end]
        out.append(span.duration - _union_length(clipped))
    return out


def _apply_name(op, adjoint: bool, cov_cls) -> str:
    if isinstance(op, cov_cls):
        return "covariance.q_apply" if op.deriv_index == 0 else "covariance.dq_apply"
    return "operators.adjoint" if adjoint else "operators.forward"


def _annotation(span_name: str, result) -> dict:
    if span_name == "gengk.bidiag":
        return {"k_used": int(result.k)}
    if span_name == "estimate.optimizer":
        trace = result[1]
        return {"iterations": int(trace.iterations), "evals": int(trace.func_count)}
    return {}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap the gkhyper layers with ``tracer`` spans for the ``with`` block.

    Every replaced attribute is put back on exit, so a process can go on to
    use the package untraced.
    """
    from gkhyper import covariance, operators

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gkhyper" or name.startswith("gkhyper."))]
        for home, fname, span_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"gkhyper.{home}"], fname)
            wrapper = _function_wrapper(tracer, span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, wrapper)
        handle = operators.LinearOperatorHandle
        for method, adjoint in (("apply", False), ("apply_adjoint", True)):
            patch(handle, method, _method_wrapper(tracer, getattr(handle, method), adjoint,
                                                  covariance.CovarianceOperator))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _function_wrapper(tracer: Tracer, span_name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(span_name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(index, **(_annotation(span_name, result) if result is not None else {}))
    return wrapper


def _method_wrapper(tracer: Tracer, method, adjoint: bool, cov_cls):
    @functools.wraps(method)
    def wrapper(self, x):
        index = tracer.open(_apply_name(self, adjoint, cov_cls))
        try:
            return method(self, x)
        finally:
            tracer.close(index)
    return wrapper


def _sum_self(spans, selfs, name) -> float:
    return float(sum(t for s, t in zip(spans, selfs) if s.name == name))


def _sum_total(spans, name) -> float:
    return float(sum(s.duration for s in spans if s.name == name))


def _count(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def bidiag_applies(spans: list[Span]) -> list[tuple[int, int]]:
    """(forward + adjoint applies inside, k_used) for every bidiagonalization span."""
    owner: list[int | None] = []
    applies: dict[int, int] = {}
    for i, span in enumerate(spans):
        if span.name == "gengk.bidiag":
            owner.append(i)
            applies[i] = 0
        else:
            owner.append(owner[span.parent] if span.parent is not None else None)
            if span.name in ("operators.forward", "operators.adjoint") and owner[i] is not None:
                applies[owner[i]] += 1
    return [(applies[i], spans[i].attrs.get("k_used", -1)) for i in sorted(applies)]


def layer_metrics(setup_spans: list[Span], solve_spans: list[Span],
                  solve_s: float) -> dict[str, float]:
    """Per-layer figures of one traced set-up plus one traced solve.

    Times are self times unless the name says otherwise: problems.build_s,
    marginal.exact_s and estimate.reconstruct_s include their children.
    trace.unaccounted_s is the part of the traced solve that no span covers.
    """
    selfs = self_times(solve_spans)
    per_bidiag = bidiag_applies(solve_spans)
    iterations = sum(s.attrs.get("iterations", 0) for s in solve_spans)
    evals = sum(s.attrs.get("evals", 0) for s in solve_spans)
    return {
        "problems.build_s": _sum_total(setup_spans, "problems.build"),
        "operators.forward_s": _sum_self(solve_spans, selfs, "operators.forward"),
        "operators.forward_n": _count(solve_spans, "operators.forward"),
        "operators.adjoint_s": _sum_self(solve_spans, selfs, "operators.adjoint"),
        "operators.adjoint_n": _count(solve_spans, "operators.adjoint"),
        "operators.applies_per_bidiag": (sum(a for a, _ in per_bidiag) / len(per_bidiag)
                                         if per_bidiag else 0.0),
        "covariance.build_s": _sum_self(solve_spans, selfs, "covariance.build"),
        "covariance.build_n": _count(solve_spans, "covariance.build"),
        "covariance.q_apply_s": _sum_self(solve_spans, selfs, "covariance.q_apply"),
        "covariance.q_apply_n": _count(solve_spans, "covariance.q_apply"),
        "covariance.dq_apply_s": _sum_self(solve_spans, selfs, "covariance.dq_apply"),
        "covariance.dq_apply_n": _count(solve_spans, "covariance.dq_apply"),
        "gengk.bidiag_self_s": _sum_self(solve_spans, selfs, "gengk.bidiag"),
        "gengk.bidiag_n": len(per_bidiag),
        "gengk.steps_n": sum(k for _, k in per_bidiag),
        "marginal.objective_self_s": _sum_self(solve_spans, selfs, "marginal.objective"),
        "marginal.objective_n": _count(solve_spans, "marginal.objective"),
        "marginal.exact_s": _sum_total(solve_spans, "marginal.exact"),
        "monitor.mc_xi_s": _sum_self(solve_spans, selfs, "monitor.mc_xi"),
        "estimate.optimizer_self_s": _sum_self(solve_spans, selfs, "estimate.optimizer"),
        "estimate.iterations": iterations,
        "estimate.iters_per_eval": iterations / evals if evals else 0.0,
        "estimate.reconstruct_s": _sum_total(solve_spans, "estimate.reconstruct"),
        "trace.solve_s": solve_s,
        "trace.unaccounted_s": solve_s - float(sum(selfs)),
    }
