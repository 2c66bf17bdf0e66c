"""In-memory spans around calls into triproxy's public functions.

The tracer wraps functions from the benchmark's side: every module attribute
under ``triproxy`` that is bound to a traced function (``from .x import f``
binds at import, so ``triproxy.pipelines.hs_decompose`` and
``triproxy.bounds.hs_decompose`` are separate names for one function) is
replaced by a wrapper that records a span, and :meth:`Tracer.uninstall` puts
every original back.  Nothing under ``src/`` is modified.

A span is ``(id, parent, op, name, start, end, counts)``.  Spans carry the id
of the op they belong to and of the span that was open when they started;
they stay in memory until the run writes them out.  A span's *self time* is
its duration minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "start": self.start, "end": self.end,
                "counts": self.counts}


def _noise_configs(model) -> int:
    return int(np.prod([n.noise_card for n in model.nodes], dtype=np.int64))


def _scm_counts(args, kwargs, result) -> dict:
    # computed from the model and the returned tensor, not measured
    return {"noise_configs": _noise_configs(args[0]),
            "joint_cells": int(result.values.size)}


def _hs_counts(args, kwargs, result) -> dict:
    return {"reweightings": int(result.diagnostics.retries_used)}


def _model_counts(args, kwargs, result) -> dict:
    return {"models": 1}


#: (module, attribute, span name, counter hook).  A dotted attribute is a
#: method on a class of that module.
TARGETS = (
    ("triproxy.prob", "ProbTensor.from_dict", "prob.from_dict", None),
    ("triproxy.prob", "restrict", "prob.restrict", None),
    ("triproxy.prob", "marginalize", "prob.marginalize", None),
    ("triproxy.spectral", "hs_decompose", "spectral.hs_decompose", _hs_counts),
    ("triproxy.spectral", "match_permutation", "spectral.match_permutation", None),
    ("triproxy.pipelines", "identify_outcome_proxy", "pipelines.identify", None),
    ("triproxy.pipelines", "identify_treatment_proxy", "pipelines.identify", None),
    ("triproxy.pipelines", "identify_cond_treatment_proxy", "pipelines.identify", None),
    ("triproxy.pipelines", "identify_auxiliary_proxy", "pipelines.identify", None),
    ("triproxy.pipelines", "estimands", "pipelines.estimands", None),
    ("triproxy.pipelines", "potential_joint", "pipelines.potential_joint", None),
    ("triproxy.relabel", "relabel_unbiased", "relabel.relabel_unbiased", None),
    ("triproxy.bounds", "bounds_outcome_proxy", "bounds.bounds_outcome_proxy", None),
    ("triproxy.bounds", "bounds_auxiliary_proxy", "bounds.bounds_auxiliary_proxy", None),
    ("triproxy.scm", "observable_joint", "scm.observable_joint", _scm_counts),
    ("triproxy.scm", "counterfactual_joint", "scm.counterfactual_joint", _scm_counts),
    ("triproxy.generators", "figure_model", "generators.figure_model", _model_counts),
    ("triproxy.generators", "unbiased_proxy_model", "generators.unbiased_proxy_model",
     _model_counts),
    ("triproxy.generators", "rank_invariant_bounds_model",
     "generators.rank_invariant_bounds_model", _model_counts),
    ("triproxy.generators", "figure_diagnostics", "generators.figure_diagnostics", None),
    ("triproxy.generators", "designed_npsem", "generators.designed_npsem", None),
    ("triproxy.graphs", "classify_designs", "graphs.classify_designs", None),
    ("triproxy.graphs", "check_proposition", "graphs.check_proposition", None),
    ("triproxy.cli", "main", "cli.main", None),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def adopt(self, records: list[dict], parent: Span) -> None:
        """Attach spans recorded by another process under ``parent``."""
        offset = len(self.spans)
        for r in records:
            own_parent = parent.id if r["parent"] is None else r["parent"] + offset
            self.spans.append(Span(r["id"] + offset, own_parent, parent.op, r["name"],
                                   r["start"], r["end"], dict(r["counts"])))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                span.counts.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every name under ``triproxy`` bound to a target function.

        Module attributes are rebound, and so are module-level dicts whose
        values hold the function directly or inside a tuple (the CLI's
        design table binds the pipelines that way).
        """
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "triproxy" or n.startswith("triproxy."))]
        for mod_name, attr, span_name, hook in TARGETS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(fn, span_name, hook)
                self._patch(cls, meth, classmethod(wrapped)
                            if isinstance(raw, classmethod) else wrapped)
                continue
            fn = getattr(home, attr)
            wrapped = self._wrap(fn, span_name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)
                    elif isinstance(value, dict):
                        self._patch_table(value, fn, wrapped)

    def _patch_table(self, table: dict, fn, wrapped) -> None:
        for key, value in list(table.items()):
            if value is fn:
                new = wrapped
            elif isinstance(value, tuple) and any(v is fn for v in value):
                new = tuple(wrapped if v is fn else v for v in value)
            else:
                continue
            self._patches.append((table.__setitem__, key, value))
            table[key] = new

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((lambda k, v: setattr(owner, k, v), key,
                              owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._patches:
            restore, key, original = self._patches.pop()
            restore(key, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)


# ---------------------------------------------------------------------------
# self-time arithmetic


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, self milliseconds and summed counters."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "self_ms": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["self_ms"] += own[s.id] * 1e3
        for k, v in s.counts.items():
            agg["counts"][k] = agg["counts"].get(k, 0) + v
    return out
