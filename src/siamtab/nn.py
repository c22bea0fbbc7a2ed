"""Minimal dense-network engine: init, forward/backward, losses, optimizers.

A ParamSet carries its dtype, and every kernel computes in it: forward,
infer, backward, the pair distances and both optimizer steps cast their
inputs to params.flat.dtype (the pair-distance kernels to their tables'
dtype; cross_distances computes in float64).
The pair trainer builds float32 parameters, as the paper's Keras models
compute in float32; the baseline trainer and the gradient oracles build
float64 ones. A checkpoint keeps its parameters' dtype. The losses compute in
float64 whatever their inputs, and so do the activity penalty and every
value reported. Everything is deterministic given the seeds that feed it.
Layer order is linear -> dropout -> activation, mirroring the layer listings
the two model configurations use (dropout sits between the dense output and
its activation; for ReLU layers this is interchangeable with post-activation
dropout because masking commutes with ReLU). The activity penalty is taken on
the layer's final activations.

Shape conventions: inputs are row batches (n, in_size); a weight matrix is
(out_size, in_size); z = x @ W.T + b.

`forward` keeps a trace and the activity penalty (training, base validation,
the gradient oracles); `infer` returns the output alone (eval, every
embed). Eval has two distance kernels: `row_distances` for a pair list
(the pair distances) and `cross_distances` for an all-pairs product (each
test row against the reference banks), one float64 GEMM per row block.
These three loop over bounded row pieces (`_pieces`), so their temporaries
stay small whatever the batch. Everything runs on the calling thread; BLAS
may thread each GEMM.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "linear")

# Floors keeping log() and the distance gradient finite.
PRED_EPS = 1e-7
DIST_FLOOR = 1e-12

@dataclass(frozen=True)
class LayerSpec:
    in_size: int
    out_size: int
    activation: str = "linear"
    dropout_rate: float = 0.0
    activity_l2: float = 0.0

    def __post_init__(self):
        if self.in_size <= 0 or self.out_size <= 0:
            raise ValueError("layer sizes must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.activity_l2 < 0.0:
            raise ValueError("activity_l2 must be nonnegative")


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_size != b.in_size:
                raise ValueError(
                    f"layer chain mismatch: {a.out_size} -> {b.in_size}"
                )

    @property
    def in_size(self) -> int:
        return self.layers[0].in_size

    @property
    def out_size(self) -> int:
        return self.layers[-1].out_size


class ParamSet:
    """Per-layer weight matrices and bias vectors over one flat buffer.

    The constructor copies its arrays into `flat`, a contiguous buffer of
    `dtype` laid out weights first then biases, in layer order; `weights`
    and `biases` are views into it. Whole-store operations (zeros and the
    optimizer updates) therefore act on one array. The same container
    holds gradients and optimizer moment buffers, which share these shapes
    and the dtype by construction; the engine computes in that dtype.
    """

    def __init__(self, weights, biases, dtype=np.float64):
        arrays = [np.asarray(a, dtype=dtype) for a in (*weights, *biases)]
        self._bind(
            np.empty(sum(a.size for a in arrays), dtype),
            [a.shape for a in arrays],
            len(weights),
        )
        for view, a in zip(self.arrays(), arrays):
            view[...] = a

    def _bind(self, flat: np.ndarray, shapes, n_weights: int):
        self.flat = flat
        self.shapes = tuple(tuple(shape) for shape in shapes)
        views, offset = [], 0
        for shape in self.shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        self.weights = views[:n_weights]
        self.biases = views[n_weights:]

    @classmethod
    def _over(cls, flat: np.ndarray, like: "ParamSet") -> "ParamSet":
        """A ParamSet with `like`'s shapes whose views alias `flat`."""
        out = cls.__new__(cls)
        out._bind(flat, like.shapes, len(like.weights))
        return out

    @classmethod
    def zeros_like(cls, other: "ParamSet") -> "ParamSet":
        return cls._over(np.zeros_like(other.flat), other)

    @classmethod
    def empty_like(cls, other: "ParamSet") -> "ParamSet":
        """Same shapes, uninitialised: for stores the caller fills entirely."""
        return cls._over(np.empty_like(other.flat), other)

    def arrays(self):
        """All arrays, weights first then biases, in layer order."""
        return self.weights + self.biases


def init_params(spec: NetworkSpec, seed: int, dtype=np.float64) -> ParamSet:
    """Glorot-uniform weights, W ~ U(-L, L) with L = sqrt(6/(fan_in+fan_out));
    zero biases. Deterministic per seed: the draws are float64 whatever the
    dtype, and a float32 set holds them rounded."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for layer in spec.layers:
        limit = np.sqrt(6.0 / (layer.in_size + layer.out_size))
        weights.append(rng.uniform(-limit, limit, size=(layer.out_size, layer.in_size)))
        biases.append(np.zeros(layer.out_size))
    return ParamSet(weights, biases, dtype)


# Most rows per piece of split inference: each (rows, 256) layer temporary
# stays at 256 KB in float32 (512 KB in float64). A batch of more rows splits
# into pieces of at least half as many: OpenBLAS computes a GEMM of a few rows
# on another path, which rounds differently.
INFER_PIECE_ROWS = 256
# Pairs per row_distances block: two (256, 256) buffers, 256 KB each in
# float32. Also the rows per cross_distances block: one (256, 256) gather
# buffer in the table's dtype (256 KB in float32) and its float64 copy
# (512 KB).
DIST_BLOCK_ROWS = 256


def _pieces(n: int, rows: int):
    """(start, stop) of each of ceil(n / rows) contiguous near-equal pieces of
    range(n), np.array_split's bounds: a piece holds at most `rows` rows and,
    when there are several, at least rows // 2. No rows make one empty piece."""
    pieces = max(1, -(-n // rows))
    size, extra = divmod(n, pieces)
    bounds = [i * size + min(i, extra) for i in range(pieces + 1)]
    return zip(bounds, bounds[1:])


@dataclass
class ForwardTrace:
    """Per-layer bookkeeping retained for the backward pass."""

    inputs: list[np.ndarray] = field(default_factory=list)
    masks: list[np.ndarray | None] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)
    penalty: float = 0.0

    def __len__(self) -> int:
        return len(self.outputs)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    """The activation of z; ReLU writes z in place."""
    if activation == "relu":
        return np.maximum(z, 0.0, out=z)
    return _sigmoid(z) if activation == "sigmoid" else z


def infer_rows(params: ParamSet, x: np.ndarray, outs: list[np.ndarray]) -> None:
    """Forward's first len(outs) layers, which must all be ReLU layers, on
    the rows of x: layer k into outs[k] (preallocated, len(x) rows each).
    No checks and no trace: the kernel of each piece of infer."""
    h = x
    for k, z in enumerate(outs):
        np.matmul(h, params.weights[k].T, out=z)
        z += params.biases[k]
        np.maximum(z, 0.0, out=z)
        h = z


def _input_batch(spec: NetworkSpec, params: ParamSet, x) -> np.ndarray:
    """x as an (n, in_size) batch in the parameters' dtype, all finite."""
    h = np.asarray(x, dtype=params.flat.dtype)
    if h.ndim != 2 or h.shape[1] != spec.in_size:
        raise ValueError(f"input shape {h.shape} is not (n, {spec.in_size})")
    if not np.isfinite(h).all():
        raise ValueError("non-finite input")
    return h


def forward(
    params: ParamSet,
    spec: NetworkSpec,
    x: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the network on an (n, in_size) row batch, keeping the trace that
    backward needs.

    In train mode dropout is inverted: surviving units scale by 1/(1-rate),
    so inference applies no correction; each mask is drawn in the
    parameters' dtype. The trace accumulates the activity penalty
    sum(l2 * a^2) over regularized layers and the whole batch, summed in
    float64.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    h = _input_batch(spec, params, x)
    if mode == "train" and rng is None and any(l.dropout_rate > 0 for l in spec.layers):
        raise ValueError("train mode with dropout requires an rng")

    trace = ForwardTrace()
    for k, layer in enumerate(spec.layers):
        # z is the matmul's fresh result, so bias, dropout and ReLU write it
        # in place; the caller's x is never written
        z = h @ params.weights[k].T
        z += params.biases[k]
        trace.inputs.append(h)
        if mode == "train" and layer.dropout_rate > 0.0:
            keep = 1.0 - layer.dropout_rate
            mask = np.divide(rng.random(z.shape, dtype=z.dtype) < keep, keep, dtype=z.dtype)
            z *= mask
            trace.masks.append(mask)
        else:
            trace.masks.append(None)
        h = _activate(z, layer.activation)
        trace.outputs.append(h)
    for layer, a in zip(spec.layers, trace.outputs):
        if layer.activity_l2 > 0.0:
            trace.penalty += layer.activity_l2 * float(np.sum(a * a, dtype=np.float64))
    return h, trace


def infer(params: ParamSet, spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """forward(params, spec, x)[0], bit for bit and with its errors, but with
    no trace and no activity penalty: eval's and every embed's path.

    The leading run of ReLU layers goes piece by piece (_pieces), each of
    at most INFER_PIECE_ROWS rows through the whole run (infer_rows). Only
    the run's last layer is a whole-batch array, made before the one set of
    piece-sized hidden layers (the other order raised a 40k-pair eval's peak
    RSS 5 MB). The layers after the run (the base net's 256->1 sigmoid head,
    a GEMV that rounds differently in row blocks) are computed whole, as in
    forward.
    """
    h = x = _input_batch(spec, params, x)
    split = 0
    while split < len(spec.layers) and spec.layers[split].activation == "relu":
        split += 1
    if split:
        run, n = spec.layers[:split], len(x)
        out = np.empty((n, run[-1].out_size), x.dtype)
        temps = [np.empty((min(n, INFER_PIECE_ROWS), l.out_size), x.dtype) for l in run[:-1]]
        for start, stop in _pieces(n, INFER_PIECE_ROWS):
            views = [t[: stop - start] for t in temps] + [out[start:stop]]
            infer_rows(params, x[start:stop], views)
        h = out
    for k, layer in enumerate(spec.layers[split:], split):
        z = h @ params.weights[k].T
        z += params.biases[k]
        h = _activate(z, layer.activation)
    return h


def backward(
    trace: ForwardTrace,
    params: ParamSet,
    spec: NetworkSpec,
    grad_out: np.ndarray,
) -> ParamSet:
    """Backpropagate grad_out (d loss / d output) through a traced forward to
    the parameter gradients, those of caller_loss(output) + trace.penalty:
    the activity-penalty gradient 2*l2*a is injected at each regularized
    activation. No gradient w.r.t. the network input is formed. grad_out is
    cast to the parameters' dtype."""
    if len(trace) != len(spec.layers):
        raise ValueError("trace depth does not match the network spec")
    g = np.asarray(grad_out, dtype=params.flat.dtype)
    if g.shape != trace.outputs[-1].shape:
        raise ValueError(
            f"grad_out shape {g.shape} != output shape {trace.outputs[-1].shape}"
        )
    grads = ParamSet.empty_like(params)  # every view is written below
    for k in reversed(range(len(spec.layers))):
        layer = spec.layers[k]
        a = trace.outputs[k]
        if layer.activity_l2 > 0.0:
            g = g + 2.0 * layer.activity_l2 * a
        if layer.activation == "relu":
            gz = g * (a > 0.0)
        elif layer.activation == "sigmoid":
            gz = g * a * (1.0 - a)
        else:
            gz = g
        if trace.masks[k] is not None:
            gz = gz * trace.masks[k]
        np.matmul(gz.T, trace.inputs[k], out=grads.weights[k])
        np.sum(gz, axis=0, out=grads.biases[k])
        if k:
            g = gz @ params.weights[k]
    return grads


def require_positive(name: str, value: float):
    """Refuse a margin or threshold that is not a finite positive number."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a finite positive number, got {value}")


def bce_loss(pred, label, class_weights=(1.0, 1.0)):
    """Class-weighted binary cross-entropy, elementwise.

    loss = -w[label] * (label*ln(p) + (1-label)*ln(1-p)) with p clamped to
    [1e-7, 1-1e-7]. Returns (loss, d loss / d pred).
    """
    p = np.clip(np.asarray(pred, dtype=np.float64), PRED_EPS, 1.0 - PRED_EPS)
    y = np.asarray(label, dtype=np.float64)
    w0, w1 = class_weights
    w = np.where(y == 1.0, w1, w0)
    loss = -w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    grad = -w * (y / p - (1.0 - y) / (1.0 - p))
    return loss, grad


def contrastive_loss(d, similar, margin: float = 1.0):
    """Pair loss: d^2 for similar pairs, hinge^2 past the margin otherwise.

    Returns (loss, d loss / d distance); the dissimilar gradient is
    -2*max(0, margin - d).
    """
    require_positive("margin", margin)
    d = np.asarray(d, dtype=np.float64)
    if np.any(d < 0.0):
        raise ValueError("distances must be nonnegative")
    sim = np.asarray(similar, dtype=bool)
    hinge = np.maximum(margin - d, 0.0)
    loss = np.where(sim, d * d, hinge * hinge)
    grad = np.where(sim, 2.0 * d, -2.0 * hinge)
    return loss, grad


def floored_sqrt(sq_norms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(max(sq_norms, DIST_FLOOR)): distances from squared norms, written
    into `out` when given. Every distance in the package ends here."""
    floored = np.maximum(sq_norms, DIST_FLOOR, out=out)
    return np.sqrt(floored, out=out)


def row_distances(a: np.ndarray, ia: np.ndarray, b: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Floored euclidean distance from a[ia[i]] to b[ib[i]] for each i, for
    (rows, emb) tables a and b, in their common dtype; np.take clips every
    index, it checks none.

    Block by block, each of at most DIST_BLOCK_ROWS pairs (_pieces), both
    members are gathered into one buffer pair, differenced and squared in
    place and summed into the result, which is floored and rooted last.
    """
    dtype = np.result_type(a, b)
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    n = len(ia)
    out = np.empty(n, dtype)
    pair = np.empty((2, min(n, DIST_BLOCK_ROWS), a.shape[1]), dtype)
    for start, stop in _pieces(n, DIST_BLOCK_ROWS):
        x, y = pair[0, : stop - start], pair[1, : stop - start]
        # mode="raise" would also gather through a temporary copy
        np.take(a, ia[start:stop], axis=0, out=x, mode="clip")
        np.take(b, ib[start:stop], axis=0, out=y, mode="clip")
        x -= y
        x *= x
        np.add.reduce(x, axis=-1, out=out[start:stop])  # np.sum's bits
    return floored_sqrt(out, out=out)


def cross_distances(a: np.ndarray, ia: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Floored euclidean distance from each a[ia[i]] to every row of b, for
    (rows, emb) tables a and b: a (len(ia), len(b)) float64 matrix. np.take
    clips every index, it checks none.

    An all-pairs product, so it takes the GEMM form ||x||^2 + ||y||^2 -
    2 x.y in float64: b is cast once, and block by block, each of at most
    DIST_BLOCK_ROWS rows of a (_pieces), the rows are gathered into one
    buffer in a's dtype, copied into one float64 buffer and multiplied
    against b in one GEMM. A sum that cancels below zero is floored like
    any other by floored_sqrt.
    """
    y = np.asarray(b, dtype=np.float64)
    y_sq = np.einsum("ij,ij->i", y, y)
    n = len(ia)
    out = np.empty((n, len(y)))
    rows = min(n, DIST_BLOCK_ROWS)
    gathered = np.empty((rows, a.shape[1]), a.dtype)
    x, x_sq = np.empty((rows, a.shape[1])), np.empty(rows)
    for start, stop in _pieces(n, DIST_BLOCK_ROWS):
        m = stop - start
        xb, xb_sq, block = x[:m], x_sq[:m], out[start:stop]
        # mode="raise" would also gather through a temporary copy
        np.take(a, ia[start:stop], axis=0, out=gathered[:m], mode="clip")
        xb[...] = gathered[:m]
        np.einsum("ij,ij->i", xb, xb, out=xb_sq)
        np.matmul(xb, y.T, out=block)
        block *= -2.0
        block += xb_sq[:, None]
        block += y_sq
    return floored_sqrt(out, out=out)


def euclidean_distance(e1: np.ndarray, e2: np.ndarray):
    """Floored euclidean distance d and g = d d / d e1; d d / d e2 is -g.

    d = sqrt(max(sum((e1-e2)^2), 1e-12)); the floor keeps g = (e1-e2)/d
    finite when the embeddings coincide. Takes two (n, emb) row batches,
    computed in their common float dtype; d is (n,) and g comes back
    row-aligned.
    """
    e1, e2 = np.asarray(e1), np.asarray(e2)
    dtype = np.result_type(e1, e2, np.float32)
    e1, e2 = e1.astype(dtype, copy=False), e2.astype(dtype, copy=False)
    if e1.ndim != 2 or e1.shape != e2.shape:
        raise ValueError(
            f"embedding shapes {e1.shape} and {e2.shape} are not two equal (n, emb) batches"
        )
    diff = e1 - e2
    d = floored_sqrt(np.sum(diff * diff, axis=-1))
    diff /= d[:, None]
    return d, diff


@dataclass
class OptimizerState:
    """Moment buffers for Adam or RMSProp, plus two scratch buffers the size
    of the parameter store that hold an update's intermediates."""

    step_count: int = 0
    m: ParamSet | None = None  # first moment, made by the first adam_step
    v: ParamSet | None = None  # second moment / running square cache
    scratch: tuple[np.ndarray, np.ndarray] | None = None


def init_optimizer(params: ParamSet) -> OptimizerState:
    scratch = (np.empty_like(params.flat), np.empty_like(params.flat))
    return OptimizerState(v=ParamSet.zeros_like(params), scratch=scratch)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
RMSPROP_RHO = 0.9
OPT_EPS = 1e-8


def _step_inputs(params: ParamSet, grads: ParamSet, lr: float):
    """The gradient store in the parameters' dtype, and lr as a Python float
    (a numpy float64 scalar would make a float32 update compute in float64
    under NEP 50)."""
    if grads.shapes != params.shapes:
        raise ValueError(f"gradient shapes {grads.shapes} != parameter shapes {params.shapes}")
    return grads.flat.astype(params.flat.dtype, copy=False), float(lr)


def adam_step(
    params: ParamSet, grads: ParamSet, state: OptimizerState, lr: float
) -> tuple[ParamSet, OptimizerState]:
    """One Adam update with bias correction. Mutates params/state in place;
    the first step makes the first-moment store.

    The in-place sequence performs the same float operations, in the same
    order, as m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), so results are bitwise those of
    the plain expressions, in the parameters' dtype.
    """
    g, lr = _step_inputs(params, grads, lr)
    if state.m is None:
        state.m = ParamSet.zeros_like(params)
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    p, m, v = params.flat, state.m.flat, state.v.flat
    s1, s2 = state.scratch
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
    m += s1
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=s1)
    s1 *= g
    v += s1
    np.divide(m, c1, out=s1)
    s1 *= lr
    np.divide(v, c2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += OPT_EPS
    s1 /= s2
    p -= s1
    return params, state


def rmsprop_step(
    params: ParamSet, grads: ParamSet, state: OptimizerState, lr: float
) -> tuple[ParamSet, OptimizerState]:
    """One RMSProp update: cache = rho*cache + ((1-rho)*g)*g, then
    p -= (lr*g) / (sqrt(cache) + eps). In place, bitwise equal to those
    expressions, in the parameters' dtype."""
    g, lr = _step_inputs(params, grads, lr)
    state.step_count += 1
    p, v = params.flat, state.v.flat
    s1, s2 = state.scratch
    v *= RMSPROP_RHO
    np.multiply(g, 1.0 - RMSPROP_RHO, out=s1)
    s1 *= g
    v += s1
    np.multiply(g, lr, out=s1)
    np.sqrt(v, out=s2)
    s2 += OPT_EPS
    s1 /= s2
    p -= s1
    return params, state


CHECKPOINT_VERSION = 2  # version 1 held float64 weights and named no dtype
CHECKPOINT_DTYPES = ("float32", "float64")  # what meta["dtype"] may name


class CheckpointVersionError(ValueError):
    """A checkpoint of a version this engine does not read."""


def save_checkpoint(
    path: str | Path,
    spec: NetworkSpec,
    params: ParamSet,
    extra: dict | None = None,
    arrays: dict[str, np.ndarray] | None = None,
):
    """Write spec + parameters (+ optional scalars and named arrays) to .npz.
    Parameters keep their dtype, float32 or float64; another is refused.

    The meta entry is a JSON string: version tag, the parameters' dtype,
    layer dimensions and layer options, plus the caller's extra scalars.
    """
    if params.flat.dtype.name not in CHECKPOINT_DTYPES:
        raise ValueError(
            f"checkpoint parameters must be float32 or float64, got {params.flat.dtype}"
        )
    meta = {
        "version": CHECKPOINT_VERSION,
        "dtype": params.flat.dtype.name,
        "layers": [
            {
                "in_size": l.in_size,
                "out_size": l.out_size,
                "activation": l.activation,
                "dropout_rate": l.dropout_rate,
                "activity_l2": l.activity_l2,
            }
            for l in spec.layers
        ],
        "extra": extra or {},
    }
    payload: dict[str, np.ndarray] = {"meta": np.array(json.dumps(meta))}
    for k in range(len(spec.layers)):
        payload[f"w{k}"] = params.weights[k]
        payload[f"b{k}"] = params.biases[k]
    for name, arr in (arrays or {}).items():
        payload[name] = arr
    np.savez(path, **payload)


def load_checkpoint(path: str | Path):
    """Read a checkpoint back: (spec, params, extra, named arrays).

    A file that is no zip archive, an entry numpy cannot read (a pickled
    object array, say), a meta entry that is not the JSON save_checkpoint
    writes, a dtype other than float32 or float64, a layer spec the engine
    refuses, a weight or bias not of that dtype, or any other array that is
    not float64 is a ValueError naming the file. A version other than
    CHECKPOINT_VERSION is a CheckpointVersionError, a ValueError too.
    """

    def read(data, name: str, dtype=np.float64) -> np.ndarray:
        try:
            entry = data[name]
        except ValueError as exc:  # numpy's own, raised while reading the entry
            raise ValueError(f"{path}: not a readable checkpoint (ValueError: {exc})") from None
        if name != "meta" and entry.dtype != dtype:
            # ParamSet and ReferenceBank would cast it: a complex value would
            # lose its imaginary part, a numeric string be parsed
            raise ValueError(
                f"{path}: array {name} has dtype {entry.dtype}, expected {np.dtype(dtype)}"
            )
        return entry

    try:
        # opened as a zip archive whatever it holds: np.load would return a
        # bare array for an .npy file
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as data:
            meta = json.loads(str(read(data, "meta")))
            version = meta.get("version")
            # type(), not ==: a JSON true or 1.0 equals 1
            if type(version) is not int or version != CHECKPOINT_VERSION:
                raise CheckpointVersionError(
                    f"{path}: unsupported checkpoint version {json.dumps(version)}"
                )
            if not isinstance(meta["extra"], dict):
                raise ValueError(f"{path}: checkpoint extra is not a JSON object")
            dtype = meta["dtype"]
            if dtype not in CHECKPOINT_DTYPES:
                raise ValueError(
                    f"{path}: checkpoint dtype {json.dumps(dtype)} is not float32 or float64"
                )
            try:
                layers = tuple(
                    LayerSpec(
                        l["in_size"], l["out_size"], l["activation"],
                        l["dropout_rate"], l["activity_l2"],
                    )
                    for l in meta["layers"]
                )
                spec = NetworkSpec(layers)
            except ValueError as exc:  # a layer spec the engine refuses
                raise ValueError(f"{path}: {exc}") from None
            expected = {f"w{k}": (l.out_size, l.in_size) for k, l in enumerate(layers)}
            expected.update({f"b{k}": (l.out_size,) for k, l in enumerate(layers)})
            stored = {}
            for name, shape in expected.items():
                if name not in data.files:
                    raise ValueError(f"{path}: checkpoint has no array {name}")
                stored[name] = read(data, name, dtype)
                if stored[name].shape != shape:
                    raise ValueError(
                        f"{path}: array {name} has shape {stored[name].shape}, "
                        f"layer spec needs {shape}"
                    )
            arrays = {
                name: read(data, name)
                for name in data.files
                if name not in expected and name != "meta"
            }
    except (
        zipfile.BadZipFile, EOFError, json.JSONDecodeError, KeyError, TypeError, AttributeError
    ) as exc:
        # a file of another format, or a meta entry without a field read above
        fault = f"{type(exc).__name__}: {exc}"
        raise ValueError(f"{path}: not a readable checkpoint ({fault})") from None
    n = len(layers)
    params = ParamSet(
        [stored[f"w{k}"] for k in range(n)], [stored[f"b{k}"] for k in range(n)], dtype
    )
    if not np.isfinite(params.flat).all():
        raise ValueError(f"{path}: checkpoint contains non-finite parameters")
    return spec, params, meta["extra"], arrays
