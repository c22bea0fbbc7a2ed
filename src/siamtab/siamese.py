"""Shared-weight twin network: pair distances and reference-bank
classification of samples.

Both branches read the one ParamSet held by the model; weight sharing is
structural, never copied. A twin with tied weights is one network applied to
one batch, so a pair step stacks both members into a (2B, d) batch and makes
one forward and one backward pass (the second members' distance gradient is
the first's negated). Its weight GEMM sums both branches into the shared store.

Embedding is trace-free inference (nn.infer), bit for bit forward's output,
and the reference distances go through nn.row_distances, eval's one
distance kernel. `eval siamese` embeds its held-out pair and test rows once
and hands classify_table that embedding with the test rows' positions in
it. The reference banks keep their own embed calls: an embed of k rows can
round differently from a piece of the table, and their distances decide the
labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureTable
from .nn import (
    ForwardTrace,
    NetworkSpec,
    ParamSet,
    backward,
    euclidean_distance,
    forward,
    infer,
    require_positive,
    row_distances,
)

DEFAULT_MARGIN = 1.0
DEFAULT_PAIR_THRESHOLD = 0.5  # margin / 2
DEFAULT_K_REFS = 10  # reference samples per class


@dataclass
class SiameseModel:
    spec: NetworkSpec
    params: ParamSet
    margin: float = DEFAULT_MARGIN
    pair_threshold: float = DEFAULT_PAIR_THRESHOLD

    def __post_init__(self):
        require_positive("margin", self.margin)
        require_positive("pair_threshold", self.pair_threshold)

    @property
    def embedding_size(self) -> int:
        return self.spec.out_size

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode embedding of an (n, d) row batch (nn.infer): bitwise
        forward's output, whatever the batch size."""
        return infer(self.params, self.spec, x)


@dataclass
class PairTrace:
    """One stacked twin forward, kept for the backward pass: the trace over
    the (2B, d) batch and d distance / d first member (the second's is -grad)."""

    trace: ForwardTrace
    grad: np.ndarray


def pair_forward(
    model: SiameseModel,
    a: np.ndarray,
    b: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
):
    """Embed both pair members with one pass over the stacked batch [a; b]
    and return their distance plus a PairTrace. In train mode every row of
    the stack draws its own dropout mask, so the branches' masks are
    independent. Both members are cast to the parameters' dtype."""
    dtype = model.params.flat.dtype
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(
            f"pair member shapes {a.shape} and {b.shape} are not two equal (n, d) batches"
        )
    emb, trace = forward(model.params, model.spec, np.vstack((a, b)), mode=mode, rng=rng)
    half = emb.shape[0] // 2
    d, grad = euclidean_distance(emb[:half], emb[half:])
    return d, PairTrace(trace, grad)


def pair_backward(model: SiameseModel, pair_trace: PairTrace, dloss_dd) -> ParamSet:
    """Gradients over the shared ParamSet for both pair members, from one
    backward pass. dloss_dd is d loss / d distance, one value per pair; the
    second members get -(s * g), which is s * -g bit for bit."""
    g = pair_trace.grad
    grad_out = np.empty((2, *g.shape), g.dtype)  # the two halves of the stacked batch
    np.multiply(np.asarray(dloss_dd, dtype=g.dtype).reshape(-1, 1), g, out=grad_out[0])
    np.negative(grad_out[0], out=grad_out[1])
    return backward(pair_trace.trace, model.params, model.spec, grad_out.reshape(-1, g.shape[1]))


@dataclass
class ReferenceBank:
    """k training vectors per class that new samples are compared against."""

    refs0: np.ndarray  # (k, d)
    refs1: np.ndarray  # (k, d)

    def __post_init__(self):
        self.refs0 = np.asarray(self.refs0, dtype=np.float64)
        self.refs1 = np.asarray(self.refs1, dtype=np.float64)
        if self.refs0.ndim != 2 or self.refs1.shape != self.refs0.shape:
            raise ValueError("reference banks must both be (k, d)")
        if len(self.refs0) < 1:
            raise ValueError("need at least one reference per class")


def build_reference_bank(train: FeatureTable, k: int, seed: int) -> ReferenceBank:
    """Sample k training rows per class, uniformly without replacement."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    refs = []
    for c in (0, 1):
        idx_c = np.flatnonzero(train.labels == c)
        if idx_c.size < k:
            raise ValueError(f"class {c} has {idx_c.size} samples, need k={k}")
        pick = rng.choice(idx_c, size=k, replace=False)
        refs.append(train.features[pick])
    return ReferenceBank(*refs)


def _mean_ref_distances(model: SiameseModel, bank: ReferenceBank, emb, rows: np.ndarray):
    """Mean embedding distance from each emb[rows[i]] to each class's
    references: each bank is embedded on its own, and one row_distances call
    takes every (row, reference) pair over the two stacked banks."""
    refs = np.vstack([model.embed(r) for r in (bank.refs0, bank.refs1)])  # (2k, emb)
    n, k2 = len(rows), len(refs)
    d = row_distances(emb, np.repeat(rows, k2), refs, np.tile(np.arange(k2), n))
    return tuple(d.reshape(n, 2, -1).mean(axis=2).T)


def classify_table(
    model: SiameseModel, bank: ReferenceBank, ft: FeatureTable, embedded: tuple | None = None
):
    """Label each row by the class with the smaller mean reference distance.

    `embedded`, when given, is an embedding table and the positions of ft's
    rows in it, in ft's order; otherwise ft's rows are embedded row for row.
    Returns (labels, mean_d0, mean_d1) arrays. An exact tie goes to class 1,
    the costlier class to miss.
    """
    if ft.n == 0:
        raise ValueError("empty table")
    vectors, rows = embedded or (model.embed(ft.features), np.arange(ft.n))
    if len(rows) != ft.n:
        raise ValueError(f"embedding positions for {len(rows)} rows, not {ft.n}")
    if vectors.shape[1:] != (model.embedding_size,):
        raise ValueError(f"embedding shape {vectors.shape} is not (rows, {model.embedding_size})")
    if not ((rows >= 0) & (rows < len(vectors))).all():
        raise ValueError(f"embedding positions out of range for {len(vectors)} rows")
    d0, d1 = _mean_ref_distances(model, bank, vectors, rows)
    return (d1 <= d0).astype(np.int64), d0, d1
