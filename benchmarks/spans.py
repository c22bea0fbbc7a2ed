"""Outside-in tracing for the benchmark: spans around calls into siamtab.

The program has no timing hooks of its own. Instead `Tracer.installed()`
replaces each public function in TARGETS with a wrapper that records a span
(name, start, end, parent, rows), in every siamtab module namespace that
holds the function. That matters because `train`, `siamese` and `cli`
import `forward`, `backward` and the rest by name, so patching `siamtab.nn`
alone would miss their calls. Spans stay in memory until the caller takes
them.

Self time is a span's duration minus the time its child spans cover. Calls
nest strictly on one thread, so children never overlap and that is the sum
of their durations.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # id of the enclosing span, -1 at the top
    rows: int | None  # rows, pairs or elements the call handled, if any

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _leading(value) -> int:
    """Row count of a batch; a single vector counts as one row."""
    arr = np.asarray(value)
    return int(arr.shape[0]) if arr.ndim > 1 else 1


def _size(value) -> int:
    return int(np.size(value))


# (module, function, rows(args, kwargs, result) or None). Span names drop the
# package prefix; nn.forward is split by mode into nn.forward.train/.infer.
TARGETS = (
    ("data", "load_csv", lambda a, k, r: r.n_rows),
    ("data", "impute", lambda a, k, r: r.n_rows),
    ("data", "load_table_csv", lambda a, k, r: r.n),
    ("data", "save_table_csv", lambda a, k, r: _arg(a, k, 0, "ft").n),
    ("pairs", "generate_pairs", lambda a, k, r: len(r)),
    ("pairs", "save_pairs_csv", lambda a, k, r: len(_arg(a, k, 0, "ps"))),
    ("pairs", "load_pairs_csv", lambda a, k, r: len(r)),
    ("nn", "forward", lambda a, k, r: _leading(_arg(a, k, 2, "x"))),
    ("nn", "backward", lambda a, k, r: _leading(_arg(a, k, 3, "grad_out"))),
    ("nn", "adam_step", None),
    ("nn", "rmsprop_step", None),
    ("nn", "euclidean_distance", lambda a, k, r: _leading(_arg(a, k, 0, "e1"))),
    ("nn", "contrastive_loss", lambda a, k, r: _size(_arg(a, k, 0, "d"))),
    ("nn", "bce_loss", lambda a, k, r: _size(_arg(a, k, 0, "pred"))),
    ("siamese", "pair_forward", lambda a, k, r: _leading(_arg(a, k, 1, "a"))),
    ("siamese", "pair_backward", lambda a, k, r: _size(_arg(a, k, 2, "dloss_dd"))),
    ("siamese", "classify_table", lambda a, k, r: _arg(a, k, 2, "ft").n),
    ("train", "train_siamese", lambda a, k, r: len(_arg(a, k, 1, "pairs"))),
    ("train", "train_base", lambda a, k, r: _arg(a, k, 1, "data").n),
    ("train", "evaluate_pairs", lambda a, k, r: len(_arg(a, k, 1, "pairs"))),
    ("train", "evaluate_classifier", lambda a, k, r: _arg(a, k, 1, "data").n),
)

OPTIMIZER_SPANS = ("nn.adam_step", "nn.rmsprop_step")
INFER_SPAN = "nn.forward.infer"


def _span_name(module: str, fn: str, args, kwargs) -> str:
    if (module, fn) == ("nn", "forward"):
        return f"nn.forward.{_arg(args, kwargs, 3, 'mode', 'infer')}"
    return f"{module}.{fn}"


class Tracer:
    """Collects spans and the rows forwarded in infer mode."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next_id = 0
        self._opt_steps = 0
        # (outermost open span, optimizer steps so far) -> infer-mode inputs.
        # Rows forwarded under one key meet the same parameters, so a row
        # seen twice under a key is work an embed-once cache would skip.
        self._infer: dict[tuple[int, int], list[np.ndarray]] = {}

    def _push(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else -1
        self._open.append(span_id)
        return span_id, parent

    @contextmanager
    def span(self, name: str, rows: int | None = None):
        """Record one span around the body of a `with` block."""
        span_id, parent = self._push()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, name, start, end, parent, rows))

    def wrap(self, module: str, fn_name: str, fn, rows_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _span_name(module, fn_name, args, kwargs)
            span_id, parent = self._push()
            if name == INFER_SPAN:
                root = self._open[0]
                x = np.atleast_2d(np.asarray(_arg(args, kwargs, 2, "x")))
                self._infer.setdefault((root, self._opt_steps), []).append(x)
            elif name in OPTIMIZER_SPANS:
                self._opt_steps += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
            rows = rows_of(args, kwargs, result) if rows_of is not None else None
            self.spans.append(Span(span_id, name, start, end, parent, rows))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every TARGETS function in all loaded siamtab modules."""
        patched = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "siamtab" or name.startswith("siamtab."))
        ]
        try:
            for module, fn_name, rows_of in TARGETS:
                original = getattr(sys.modules[f"siamtab.{module}"], fn_name)
                wrapper = self.wrap(module, fn_name, original, rows_of)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)

    def take(self) -> tuple[list[Span], float]:
        """Hand over the spans recorded so far and the unique-row share of
        the infer-mode forwards, and start afresh."""
        spans, self.spans = self.spans, []
        share = unique_row_share(self._infer.values())
        self._infer = {}
        return spans, share


def unique_row_share(groups) -> float:
    """Distinct rows over rows forwarded, summed over groups of inputs that
    met the same parameters. 1.0 when nothing was forwarded."""
    distinct = forwarded = 0
    for arrays in groups:
        rows = np.ascontiguousarray(np.vstack(arrays), dtype=np.float64)
        forwarded += rows.shape[0]
        distinct += np.unique(rows.view(np.dtype((np.void, rows.shape[1] * 8)))).size
    return distinct / forwarded if forwarded else 1.0


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    child = {}
    for s in spans:
        if s.parent >= 0:
            child[s.parent] = child.get(s.parent, 0.0) + s.seconds
    return {s.id: s.seconds - child.get(s.id, 0.0) for s in spans}


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds, calls and rows."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0})
        t["s"] += s.seconds
        t["self_s"] += own[s.id]
        t["calls"] += 1
        t["rows"] += s.rows or 0
    return totals
