"""Training loops for both models, metric reports, and history export.

The baseline classifier is a dense sigmoid network trained with class-weighted
binary cross-entropy (Adam, batch 16, 250 epochs by default). The pair model
is the shared-weight twin trained with contrastive loss (RMSProp, batch 64,
10 epochs by default). The two differ only in network and objective: each
trainer hands one epoch loop a per-batch step, and that loop owns the
shuffle, the batching, the optimizer update, the history and the progress
line. It reshuffles per epoch from a seeded stream, so training is bitwise
deterministic for a fixed (data, config, seed).

The pair trainer builds float32 parameters (PAIR_DTYPE), as the paper's
Keras models compute in float32, and casts its table to it once. The
baseline stays in float64: trained in float32 for 250 epochs, its held-out
accuracy fell on each of five paired seeds of the quality check (README).
Losses, histories and reports are float64 for both.

Reported losses are per-sample averages of data loss + activity penalty;
gradients keep the raw 2*l2*a penalty injection, so the regularizer acts per
activation exactly as the layer listings imply. Pair evaluation embeds each
distinct row once (embed_rows) and takes its distances by nn.row_distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .data import FeatureTable, read_grid_csv, stratified_split
from .nn import (
    LayerSpec,
    NetworkSpec,
    OptimizerState,
    ParamSet,
    adam_step,
    backward,
    bce_loss,
    contrastive_loss,
    forward,
    infer,
    init_optimizer,
    init_params,
    rmsprop_step,
    row_distances,
)
from .pairs import PairSet, split_pairs
from .siamese import (
    DEFAULT_MARGIN,
    DEFAULT_PAIR_THRESHOLD,
    ReferenceBank,
    SiameseModel,
    classify_table,
    pair_backward,
    pair_forward,
)


def base_network_spec(in_size: int = 15) -> NetworkSpec:
    """Baseline topology: two 256-wide ReLU blocks and a sigmoid output unit,
    each block carrying dropout 0.175 and activity penalty 0.01. The output
    block keeps its dropout between the dense unit and the sigmoid, as the
    configuration lists it."""
    return NetworkSpec(
        (
            LayerSpec(in_size, 256, "relu", dropout_rate=0.175, activity_l2=0.01),
            LayerSpec(256, 256, "relu", dropout_rate=0.175, activity_l2=0.01),
            LayerSpec(256, 1, "sigmoid", dropout_rate=0.175, activity_l2=0.01),
        )
    )


def siamese_network_spec(in_size: int = 15) -> NetworkSpec:
    """Twin-branch topology: 256-256-256 ReLU embedding with dropout 0.2
    after each hidden block and none on the embedding layer."""
    return NetworkSpec(
        (
            LayerSpec(in_size, 256, "relu", dropout_rate=0.2),
            LayerSpec(256, 256, "relu", dropout_rate=0.2),
            LayerSpec(256, 256, "relu"),
        )
    )


VAL_FRACTION = 0.25  # share of the training rows or pairs held for validation
PAIR_DTYPE = np.float32  # the pair model's parameters, and so its engine kernels


@dataclass(frozen=True)
class TrainConfig:
    """The values a caller varies per run; each trainer fixes the rest of its
    recipe (optimizer, loss settings, validation share)."""

    epochs: int
    batch_size: int
    learning_rate: float
    seed: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


def base_config(seed: int = 0, **overrides) -> TrainConfig:
    """Baseline defaults: lr 0.001, batch 16, 250 epochs."""
    return replace(TrainConfig(250, 16, 0.001, seed), **overrides)


def siamese_config(seed: int = 0, **overrides) -> TrainConfig:
    """Pair-model defaults: lr 0.001, batch 64, 10 epochs."""
    return replace(TrainConfig(10, 64, 0.001, seed), **overrides)


@dataclass
class History:
    """Per-epoch series; validation entries are NaN when no split was held."""

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)

    def append(self, tl: float, ta: float, vl: float, va: float):
        self.train_loss.append(tl)
        self.train_acc.append(ta)
        self.val_loss.append(vl)
        self.val_acc.append(va)

    def __len__(self) -> int:
        return len(self.train_loss)


@dataclass
class EvalReport:
    """Confusion matrix [[TN, FP], [FN, TP]] (rows = true class) plus the
    derived accuracy and per-class precision/recall."""

    confusion: np.ndarray
    accuracy: float
    precision: tuple[float, float]
    recall: tuple[float, float]

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "EvalReport":
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        if y_true.shape != y_pred.shape or y_true.size == 0:
            raise ValueError("need equal-length, nonempty prediction vectors")
        tn = int(((y_true == 0) & (y_pred == 0)).sum())
        fp = int(((y_true == 0) & (y_pred == 1)).sum())
        fn = int(((y_true == 1) & (y_pred == 0)).sum())
        tp = int(((y_true == 1) & (y_pred == 1)).sum())
        total = tn + fp + fn + tp
        confusion = np.array([[tn, fp], [fn, tp]], dtype=np.int64)

        def safe(num, den):
            return num / den if den > 0 else 0.0

        return cls(
            confusion=confusion,
            accuracy=(tn + tp) / total,
            precision=(safe(tn, tn + fn), safe(tp, tp + fp)),
            recall=(safe(tn, tn + fp), safe(tp, tp + fn)),
        )

    def record(self, prefix: str = "") -> list[tuple[str | None, str | None, str | None]]:
        """This report's section of an eval record: (kv key, kv value, text
        line) entries, each key prefixed. The counts go to the kv file alone,
        but tp carries the confusion-matrix line; each rate is its repr in
        the kv file and rounded to 4 places in the text."""
        (tn, fp), (fn, tp) = self.confusion.tolist()
        matrix = f"confusion matrix [[TN, FP], [FN, TP]]: [[{tn}, {fp}], [{fn}, {tp}]]"
        rates = (
            ("accuracy", "accuracy:", self.accuracy),
            ("precision_class0", "precision class 0:", self.precision[0]),
            ("precision_class1", "precision class 1:", self.precision[1]),
            ("recall_class0", "recall class 0:", self.recall[0]),
            ("recall_class1", "recall class 1:", self.recall[1]),
        )
        return [
            (f"{prefix}tn", str(tn), None),
            (f"{prefix}fp", str(fp), None),
            (f"{prefix}fn", str(fn), None),
            (f"{prefix}tp", str(tp), matrix),
        ] + [(prefix + key, repr(rate), f"{label:<19}{rate:.4f}") for key, label, rate in rates]


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _check_loss(batch_loss: float, epoch: int, start: int, batch_size: int) -> float:
    """Stop at the first non-finite batch loss: past it every update, and
    any checkpoint written from the result, is garbage."""
    if not math.isfinite(batch_loss):
        raise ValueError(
            f"training diverged: non-finite loss {batch_loss} at epoch {epoch + 1}, "
            f"batch {start // batch_size + 1}"
        )
    return batch_loss


Progress = Callable[[str], None]


def _fit(
    cfg: TrainConfig,
    params: ParamSet,
    n: int,
    batch_step: Callable[[np.ndarray, np.random.Generator], tuple[float, int, ParamSet]],
    step: Callable[[ParamSet, ParamSet, OptimizerState, float], object],
    validate: Callable[[], tuple[float, float]] | None,
    loop_seed: int,
    progress: Progress | None,
) -> History:
    """The epoch loop both trainers share; updates `params` in place.

    Each epoch draws a permutation of the n training items from the loop
    stream, then calls batch_step(indices, rng) on each batch for its summed
    loss, correct count and gradients, and applies them with the optimizer
    step(params, grads, state, lr). The same stream feeds the dropout
    masks, so a run is fixed by (data, config, seed).
    """
    state = init_optimizer(params)
    rng = np.random.default_rng(loop_seed)
    history = History()
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            batch_loss, batch_correct, grads = batch_step(
                order[start : start + cfg.batch_size], rng
            )
            loss_sum += _check_loss(batch_loss, epoch, start, cfg.batch_size)
            correct += batch_correct
            step(params, grads, state, cfg.learning_rate)
        train_loss = loss_sum / n
        train_acc = correct / n

        if validate is not None:
            val_loss, val_acc = validate()
        else:
            val_loss, val_acc = float("nan"), float("nan")
        history.append(train_loss, train_acc, val_loss, val_acc)
        if progress is not None:
            progress(
                f"epoch {epoch + 1}/{cfg.epochs} "
                f"train_loss={train_loss:.4f} train_acc={train_acc:.4f} "
                f"val_loss={val_loss:.4f} val_acc={val_acc:.4f}"
            )
    return history


def train_base(
    cfg: TrainConfig,
    data: FeatureTable,
    *,
    class_weights: tuple[float, float] = (1.0, 5.0),
    progress: Progress | None = None,
) -> tuple[ParamSet, History]:
    """Train the baseline classifier with class-weighted BCE and Adam;
    returns its parameters and history."""
    if data.n == 0:
        raise ValueError("empty data")
    if len(np.unique(data.labels)) < 2:
        raise ValueError("training data contains a single class")
    s_init, s_split, s_loop = _seeds(cfg.seed, 3)
    train_ft, val_ft = stratified_split(data, VAL_FRACTION, s_split)

    spec = base_network_spec(data.d)
    params = init_params(spec, s_init)

    def batch_step(sel, rng):
        y = train_ft.labels[sel]
        out, trace = forward(params, spec, train_ft.features[sel], mode="train", rng=rng)
        p = out[:, 0]
        losses, dldp = bce_loss(p, y, class_weights)
        grads = backward(trace, params, spec, (dldp / sel.size)[:, None])
        correct = int(((p >= 0.5).astype(np.int64) == y).sum())
        return float(losses.sum()) + trace.penalty, correct, grads

    validate = partial(_eval_base, params, spec, val_ft, class_weights) if val_ft.n else None
    # the step is looked up here, at call time, in each trainer: the
    # benchmark tracer patches adam_step and rmsprop_step by name
    return params, _fit(
        cfg, params, train_ft.n, batch_step, adam_step, validate, s_loop, progress
    )


def _eval_base(params, spec, ft: FeatureTable, weights) -> tuple[float, float]:
    out, trace = forward(params, spec, ft.features, mode="infer")
    p = out[:, 0]
    losses, _ = bce_loss(p, ft.labels, weights)
    loss = (float(losses.sum()) + trace.penalty) / ft.n
    acc = float(((p >= 0.5).astype(np.int64) == ft.labels).mean())
    return loss, acc


def train_siamese(
    cfg: TrainConfig,
    pairs: PairSet,
    *,
    margin: float = DEFAULT_MARGIN,
    pair_threshold: float = DEFAULT_PAIR_THRESHOLD,
    progress: Progress | None = None,
) -> tuple[SiameseModel, History]:
    """Train the shared-weight pair model on a pair corpus with contrastive
    loss and RMSProp."""
    if len(pairs) == 0:
        raise ValueError("empty pair set")
    s_init, s_split, s_loop = _seeds(cfg.seed, 3)
    train_ps, val_ps = split_pairs(pairs, 1.0 - VAL_FRACTION, s_split)

    features = pairs.source.features.astype(PAIR_DTYPE)
    spec = siamese_network_spec(pairs.source.d)
    params = init_params(spec, s_init, PAIR_DTYPE)
    model = SiameseModel(spec, params, margin=margin, pair_threshold=pair_threshold)

    def batch_step(sel, rng):
        sim = train_ps.similar[sel]
        a = features[train_ps.left[sel]]
        b = features[train_ps.right[sel]]
        d, pair_trace = pair_forward(model, a, b, mode="train", rng=rng)
        losses, dldd = contrastive_loss(d, sim, model.margin)
        grads = pair_backward(model, pair_trace, dldd / sel.size)
        return float(losses.sum()), int(((d < pair_threshold) == sim).sum()), grads

    validate = partial(_eval_pairs_loss, model, val_ps) if len(val_ps) else None
    return model, _fit(
        cfg, params, len(train_ps), batch_step, rmsprop_step, validate, s_loop, progress
    )


def _distinct_rows(n: int, *indices: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """np.unique(concat(indices), return_inverse=True) without the sort, for
    index arrays over one n-row table: the sorted distinct rows they name,
    and each array's positions among them."""
    idx = np.concatenate(indices)
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    inverse = (np.cumsum(seen) - 1)[idx]
    return np.flatnonzero(seen), np.split(inverse, np.cumsum([len(i) for i in indices[:-1]]))


@dataclass(frozen=True)
class RowEmbedding:
    """Inference embeddings of the distinct table rows that some index arrays
    name, each row embedded once: vectors[positions[j]] embeds the rows the
    j-th array names, in its order."""

    vectors: np.ndarray
    positions: tuple[np.ndarray, ...]


def embed_rows(model: SiameseModel, features: np.ndarray, *indices: np.ndarray) -> RowEmbedding:
    """Embed every distinct row of `features` that the index arrays name,
    with one embed call.

    `eval siamese` embeds the union of its test pairs' rows and test-split
    rows this way, once, for both of its reports.
    """
    rows, positions = _distinct_rows(len(features), *indices)
    return RowEmbedding(model.embed(features[rows]), tuple(positions))


def _pair_distances(
    model: SiameseModel, ps: PairSet, embedded: RowEmbedding | None = None
) -> np.ndarray:
    """Inference-mode distances for every pair.

    The members' embeddings are read from `embedded` (its first two index
    arrays were ps.left and ps.right), or from one embed_rows call over the
    pairs, and go through nn.row_distances.
    """
    if embedded is None:
        embedded = embed_rows(model, ps.source.features, ps.left, ps.right)
    emb, (left, right) = embedded.vectors, embedded.positions[:2]
    n = len(ps)
    if len(left) != n or len(right) != n:
        raise ValueError(f"embedding positions for {len(left)}/{len(right)} members, not {n}")
    # every position comes from _distinct_rows, so each is in range
    return row_distances(emb, left, emb, right)


def _eval_pairs_loss(model: SiameseModel, ps: PairSet) -> tuple[float, float]:
    d = _pair_distances(model, ps)
    losses, _ = contrastive_loss(d, ps.similar, model.margin)
    acc = float(((d < model.pair_threshold) == ps.similar).mean())
    return float(losses.mean()), acc


def evaluate_pairs(
    model: SiameseModel, pairs: PairSet, embedded: RowEmbedding | None = None
) -> EvalReport:
    """Pair-level confusion matrix; a similar verdict is the positive class.
    `embedded` is as for _pair_distances."""
    if len(pairs) == 0:
        raise ValueError("empty pair set")
    d = _pair_distances(model, pairs, embedded)
    verdicts = (d < model.pair_threshold).astype(np.int64)
    return EvalReport.from_predictions(pairs.similar.astype(np.int64), verdicts)


def evaluate_classifier(
    model,
    data: FeatureTable,
    bank: ReferenceBank | None = None,
    embedded: RowEmbedding | None = None,
) -> EvalReport:
    """Sample-level confusion matrix and metrics.

    `model` is either a SiameseModel, classified through its reference bank,
    or a (NetworkSpec, ParamSet) pair for a sigmoid-output classifier such
    as the baseline. For a SiameseModel, `embedded` may hold data's rows
    already embedded: an embed_rows result whose last index array named
    them in data's order; classify_table reads them by those positions.
    """
    if data.n == 0:
        raise ValueError("empty data")
    if isinstance(model, SiameseModel):
        if bank is None:
            raise ValueError("siamese evaluation needs a reference bank")
        emb = None if embedded is None else (embedded.vectors, embedded.positions[-1])
        preds, _, _ = classify_table(model, bank, data, emb)
    else:
        spec, params = model
        preds = (infer(params, spec, data.features)[:, 0] >= 0.5).astype(np.int64)
    return EvalReport.from_predictions(data.labels, preds)


_HISTORY_HEADER = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]


def export_history(history: History, path: str | Path):
    """Write the per-epoch series as CSV; floats use repr so a read-back
    reproduces every value exactly."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(_HISTORY_HEADER) + "\n")
        for i in range(len(history)):
            fh.write(
                f"{i + 1},{history.train_loss[i]!r},{history.train_acc[i]!r},"
                f"{history.val_loss[i]!r},{history.val_acc[i]!r}\n"
            )


def load_history(path: str | Path) -> History:
    """Read back a history written by export_history; every cell, the epoch
    included, must be a number."""
    grid = read_grid_csv(path, _HISTORY_HEADER, np.float64, "history")
    return History(*(col.tolist() for col in grid[:, 1:].T))
