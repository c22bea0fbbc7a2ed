"""Shared-weight twin network: pair distances and reference-bank
classification of samples.

Both branches read the one ParamSet held by the model; weight sharing is
structural, never copied. A twin with tied weights is one network applied to
one batch, so a pair step stacks both members into a (2B, d) batch and makes
one forward and one backward pass (the second members' distance gradient is
the first's negated). Its weight GEMM sums both branches into the shared store.

Embedding is trace-free inference (nn.infer): the usable cores take its
rows in pieces of at most nn.INFER_PIECE_ROWS (nn.over_rows), so each core's
layer temporaries stay cache-sized. Reference distances are built one
reference column at a time, in row pieces the cores take the same way, each
through its thread's buffer. Neither split changes a bit of the results.
`eval siamese` embeds its held-out pair and test rows once and hands
classify_table the test rows' embeddings. The reference banks keep their
own embed calls: an embed of k rows can round differently from a piece of
the table, and their distances decide the labels.
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
    floored_sqrt,
    forward,
    infer,
    over_rows,
    require_positive,
)

DEFAULT_MARGIN = 1.0
DEFAULT_PAIR_THRESHOLD = 0.5  # margin / 2
# Most rows per piece of the reference distance loop.
_REF_PIECE_ROWS = 256


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
        forward's output, whatever the batch size and core count."""
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
    independent."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
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
    grad_out = np.empty((2, *g.shape))  # the two halves of the stacked batch
    np.multiply(np.asarray(dloss_dd, dtype=np.float64).reshape(-1, 1), g, out=grad_out[0])
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


def _mean_ref_distances(model: SiameseModel, bank: ReferenceBank, e_x: np.ndarray):
    """Mean embedding distance from each embedded row of e_x to each class's
    references.

    Each bank is embedded on its own. Both (n, k) distance matrices are
    made first, then filled over_rows: each piece fills its rows one
    reference column at a time through its thread's piece-sized buffer.
    """
    e_refs = [model.embed(refs) for refs in (bank.refs0, bank.refs1)]  # (k, emb) each
    dists = [np.empty((len(e_x), len(e_r))) for e_r in e_refs]

    def fill(start: int, stop: int, buf: np.ndarray):
        rows, scratch = e_x[start:stop], buf[: stop - start]
        for e_r, dist in zip(e_refs, dists):
            for j, e in enumerate(e_r):
                np.subtract(rows, e, out=scratch)
                scratch *= scratch
                np.add.reduce(scratch, axis=-1, out=dist[start:stop, j])  # np.sum's bits

    piece_rows = min(len(e_x), _REF_PIECE_ROWS)
    over_rows(len(e_x), fill, _REF_PIECE_ROWS, lambda: np.empty((piece_rows, e_x.shape[1])))
    return tuple(floored_sqrt(dist, out=dist).mean(axis=1) for dist in dists)


def classify_table(
    model: SiameseModel, bank: ReferenceBank, ft: FeatureTable, emb: np.ndarray | None = None
):
    """Label each row by the class with the smaller mean reference distance.

    `emb`, when given, holds ft's rows already embedded, row for row.
    Returns (labels, mean_d0, mean_d1) arrays. An exact tie goes to class 1,
    the costlier class to miss.
    """
    if ft.n == 0:
        raise ValueError("empty table")
    if emb is None:
        emb = model.embed(ft.features)
    elif emb.shape != (ft.n, model.embedding_size):
        raise ValueError(f"embedding shape {emb.shape} is not ({ft.n}, {model.embedding_size})")
    d0, d1 = _mean_ref_distances(model, bank, emb)
    labels = (d1 <= d0).astype(np.int64)
    return labels, d0, d1
