"""Independent oracles used across the test suite.

Everything here recomputes expected values by brute force (central finite
differences, plain-Python counting loops, per-row CSV writers and a per-cell
CSV reader, np.loadtxt for a table's text copy) without touching the
gradient, metric or I/O code paths under test.
"""

from __future__ import annotations

import csv

import numpy as np

from siamtab.data import table_sidecar
from siamtab.nn import LayerSpec, NetworkSpec, ParamSet

FD_H = 1e-5


def random_small_spec(rng, head: str) -> NetworkSpec:
    """Random net for gradient checks: depth <= 3, width <= 8, dropout off;
    about half the layers carry an activity penalty."""
    depth = int(rng.integers(1, 4))
    sizes = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
    layers = []
    for i in range(depth):
        last = i == depth - 1
        if last:
            act = "sigmoid" if head == "bce" else "relu"
        else:
            act = ("relu", "linear")[int(rng.integers(2))]
        l2 = 0.01 if rng.random() < 0.5 else 0.0
        out = 1 if (last and head == "bce") else sizes[i + 1]
        layers.append(LayerSpec(sizes[i], out, act, 0.0, l2))
        sizes[i + 1] = out
    return NetworkSpec(tuple(layers))


def away_from_kinks(spec, params, x, margin: float = 1e-3) -> bool:
    """True when no ReLU pre-activation sits within `margin` of zero, so a
    +/- h parameter perturbation cannot cross the kink where central
    differences stop being a valid derivative oracle. Pre-activations are
    recomputed here layer by layer from the weights (dropout off)."""
    h = np.asarray(x, dtype=np.float64)
    for k, layer in enumerate(spec.layers):
        z = h @ params.weights[k].T + params.biases[k]
        if layer.activation == "relu" and np.any(np.abs(z) < margin):
            return False
        if layer.activation == "relu":
            h = np.maximum(z, 0.0)
        elif layer.activation == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-z))
        else:
            h = z
    return True


def kink_free_input(rng, spec, params: ParamSet, n: int, tries: int = 100) -> np.ndarray:
    for _ in range(tries):
        x = rng.normal(size=(n, spec.in_size))
        if away_from_kinks(spec, params, x):
            return x
    raise RuntimeError("no kink-free input found; reseed the test")


def numeric_gradient(loss_fn, params: ParamSet, h: float = FD_H) -> ParamSet:
    """Central finite differences of a scalar loss over every parameter entry.

    loss_fn takes no arguments and reads `params` by reference; entries are
    perturbed in place and restored.
    """
    grads = ParamSet.zeros_like(params)
    for arr, garr in zip(params.arrays(), grads.arrays()):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            lp = loss_fn()
            arr[ix] = orig - h
            lm = loss_fn()
            arr[ix] = orig
            garr[ix] = (lp - lm) / (2.0 * h)
    return grads


def numeric_gradient_array(loss_fn, x: np.ndarray, h: float = FD_H) -> np.ndarray:
    """Same as numeric_gradient but over a single ndarray."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = x[ix]
        x[ix] = orig + h
        lp = loss_fn()
        x[ix] = orig - h
        lm = loss_fn()
        x[ix] = orig
        g[ix] = (lp - lm) / (2.0 * h)
    return g


def param_sum(a: ParamSet, b: ParamSet) -> ParamSet:
    """a + b entry by entry over the flat buffers, as a new ParamSet."""
    assert a.shapes == b.shapes
    out = ParamSet.zeros_like(a)
    out.flat[:] = a.flat + b.flat
    return out


def max_rel_error(analytic: ParamSet, numeric: ParamSet) -> float:
    """Worst symmetric relative error across all parameter gradients.

    The denominator is floored at 1e-5 so gradients at the finite-difference
    noise floor (~1e-11 here) compare absolutely instead of blowing up.
    """
    worst = 0.0
    for a, n in zip(analytic.arrays(), numeric.arrays()):
        err = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-5)
        worst = max(worst, float(err.max()))
    return worst


def rel_error_array(analytic: np.ndarray, numeric: np.ndarray) -> float:
    err = np.abs(analytic - numeric) / np.maximum(
        np.abs(analytic) + np.abs(numeric), 1e-5
    )
    return float(err.max())


def count_confusion(y_true, y_pred) -> tuple[int, int, int, int]:
    """(tn, fp, fn, tp) by a plain counting loop."""
    tn = fp = fn = tp = 0
    for t, p in zip(y_true, y_pred):
        if t == 0 and p == 0:
            tn += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 1 and p == 0:
            fn += 1
        else:
            tp += 1
    return tn, fp, fn, tp


def pair_counts(labels, left, similar) -> tuple[int, int, int]:
    """(cross-class, class-0, class-1) pair counts, read from the flags and
    the labels of the left rows: a same-class pair's class is its left row's."""
    same = np.asarray(labels)[np.asarray(left)[similar]]
    return int((~similar).sum()), int((same == 0).sum()), int((same == 1).sum())


def save_pairs_csv_rows(ps, path):
    """Pair CSV written one f-string per pair."""
    with open(path, "w", newline="\n") as fh:
        fh.write("left_index,right_index,similar\n")
        for i in range(len(ps)):
            fh.write(f"{ps.left[i]},{ps.right[i]},{int(ps.similar[i])}\n")


def load_pairs_csv_rows(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, similar) of a pair CSV read one row at a time."""
    left, right, similar = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            left.append(int(row[0]))
            right.append(int(row[1]))
            similar.append(bool(int(row[2])))
    return (
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(similar, dtype=bool),
    )


def save_table_csv_rows(ft, path, label_name="label"):
    """Table CSV written one repr per numpy scalar and one write per row."""
    names = [c.name for c in ft.schema] if ft.schema else [f"f{i:02d}" for i in range(ft.d)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names + [label_name]) + "\n")
        for i in range(ft.n):
            row = [repr(float(v)) for v in ft.features[i]]
            row.append(str(int(ft.labels[i])))
            fh.write(",".join(row) + "\n")


def assert_text_copy_is_the_grid(path):
    """np.loadtxt of a table's CSV gives its sidecar's grid bit for bit."""
    with np.load(table_sidecar(path), allow_pickle=False) as npz:
        assert npz.files == ["grid"]
        grid = npz["grid"]
    text = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert text.shape == grid.shape
    assert np.array_equal(text.view(np.int64), grid.view(np.int64))


def load_csv_cells(path, schema) -> np.ndarray:
    """Cell grid of a table CSV parsed one cell at a time, checking each line
    fully before the next; raises the same errors as `data.load_csv`. Only
    "" and "NA" are missing; a non-finite or underscored number is not
    numeric, and a cell may not hold a line break."""
    missing_tokens = ("", "NA")
    label_j = [c.is_label for c in schema].index(True)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        for cell in header:
            if "\r" in cell or "\n" in cell:
                raise ValueError(f"{path}: line 1: line break inside header cell {cell!r}")
        names = [h.strip() for h in header]
        expected = [c.name for c in schema]
        if names != expected:
            raise ValueError(f"{path}: header mismatch: expected {expected}, got {names}")
        rows = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(schema):
                raise ValueError(
                    f"{path}: line {i}: expected {len(schema)} cells, got {len(row)}"
                )
            vals = np.empty(len(schema), dtype=np.float64)
            for j, tok in enumerate(row):
                if "\r" in tok or "\n" in tok:
                    raise ValueError(
                        f"{path}: line {i}: line break inside a cell in column "
                        f"{schema[j].name!r}"
                    )
                tok = tok.strip()
                if tok in missing_tokens:
                    if j == label_j:
                        raise ValueError(
                            f"{path}: line {i}: missing value in label column "
                            f"{schema[j].name!r}"
                        )
                    vals[j] = np.nan
                    continue
                try:
                    vals[j] = float(tok)
                    if "_" in tok or not np.isfinite(vals[j]):
                        raise ValueError(tok)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {i}: non-numeric value {tok!r} in column "
                        f"{schema[j].name!r}"
                    ) from None
            if vals[label_j] not in (0.0, 1.0):
                raise ValueError(
                    f"{path}: line {i}: label must be 0 or 1, got {vals[label_j]}"
                )
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: empty table (header only)")
    return np.vstack(rows)


def _floored_norm(diff) -> np.ndarray:
    # the floor in diff's dtype: numpy 1.x would take a bare 1e-12 against a
    # float32 scalar in float64
    return np.sqrt(np.maximum(np.sum(diff * diff, axis=-1), diff.dtype.type(1e-12)))


def row_distances_per_pair(a, ia, b, ib) -> np.ndarray:
    """Floored distance from a[ia[i]] to b[ib[i]], one pair at a time, in the
    tables' dtype."""
    dtype = np.result_type(a, b)
    return np.array([_floored_norm(a[i] - b[j]) for i, j in zip(ia, ib)], dtype=dtype)


def cross_distances_direct(a, ia, b) -> np.ndarray:
    """Floored distance from each a[ia[i]] to every row of b, by (n, m, emb)
    float64 differences."""
    x, y = a[ia].astype(np.float64), b.astype(np.float64)
    return _floored_norm(x[:, None, :] - y[None, :, :])


def _embed_whole(model, x) -> np.ndarray:
    """One inference forward over the whole batch, as embed used to run."""
    from siamtab.nn import forward

    return forward(model.params, model.spec, x)[0]


def pair_distances_row_chunks(model, ps, chunk: int = 8192) -> np.ndarray:
    """Pair distances the 8192-chunk way: each distinct row embedded by one
    forward per chunk of rows, then each chunk of pairs gathered, differenced
    and normed as whole (chunk, emb) arrays."""
    rows, inverse = np.unique(np.concatenate((ps.left, ps.right)), return_inverse=True)
    emb = np.empty((rows.size, model.embedding_size))
    for start in range(0, rows.size, chunk):
        sel = slice(start, start + chunk)
        emb[sel] = _embed_whole(model, ps.source.features[rows[sel]])
    n = len(ps)
    left, right = inverse[:n], inverse[n:]
    out = np.empty(n)
    for start in range(0, n, chunk):
        sel = slice(start, start + chunk)
        out[sel] = _floored_norm(emb[left[sel]] - emb[right[sel]])
    return out


def mean_ref_distances_broadcast(model, bank, x) -> tuple[np.ndarray, np.ndarray]:
    """Mean reference distances through (n, k, emb) float64 broadcasts, each
    of x and the two banks embedded by one forward."""
    e_x = _embed_whole(model, x).astype(np.float64)
    return tuple(
        _floored_norm(
            e_x[:, None, :] - _embed_whole(model, refs).astype(np.float64)[None, :, :]
        ).mean(axis=1)
        for refs in (bank.refs0, bank.refs1)
    )


def generate_pairs_parts(ft, n_diff: int, n_same0: int, n_same1: int, seed: int):
    """generate_pairs the per-part way: each part's left and right indices
    gathered into new arrays, then all parts joined by np.concatenate. Draws
    from the same streams in the same order. Takes valid counts only."""
    from siamtab.pairs import PairSet, split_by_label

    child = np.random.SeedSequence(seed).generate_state(2)
    idx0, idx1 = split_by_label(ft, int(child[0]))
    rng = np.random.default_rng(int(child[1]))
    left_parts, right_parts = [], []
    if n_diff > 0:
        left_parts.append(idx0[rng.integers(0, idx0.size, n_diff)])
        right_parts.append(idx1[rng.integers(0, idx1.size, n_diff)])
    for n_same, idx in ((n_same0, idx0), (n_same1, idx1)):
        if n_same > 0:
            p = rng.integers(0, idx.size, n_same)
            q = (p + 1 + rng.integers(0, idx.size - 1, n_same)) % idx.size
            left_parts.append(idx[p])
            right_parts.append(idx[q])
    if left_parts:
        left = np.concatenate(left_parts)
        right = np.concatenate(right_parts)
    else:
        left = np.empty(0, dtype=np.int64)
        right = np.empty(0, dtype=np.int64)
    similar = np.concatenate(
        [np.zeros(n_diff, dtype=bool), np.ones(n_same0 + n_same1, dtype=bool)]
    )
    return PairSet(ft, left, right, similar)


def forward_new_arrays(params, spec, x, mode="infer", rng=None):
    """The engine's forward with three new arrays per layer, as it was before
    it wrote each layer in place: z = h @ W.T + b, dropout z * mask, ReLU
    np.maximum(z, 0.0). Draws masks from rng in the same order. Returns
    (output, inputs, masks, outputs, penalty)."""
    from siamtab.nn import _sigmoid

    h = np.asarray(x, dtype=np.float64)
    inputs, masks, outputs, penalty = [], [], [], 0.0
    for k, layer in enumerate(spec.layers):
        z = h @ params.weights[k].T + params.biases[k]
        inputs.append(h)
        mask = None
        if mode == "train" and layer.dropout_rate > 0.0:
            keep = 1.0 - layer.dropout_rate
            mask = (rng.random(z.shape) < keep) / keep
            z = z * mask
        masks.append(mask)
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "sigmoid":
            a = _sigmoid(z)
        else:
            a = z
        if layer.activity_l2 > 0.0:
            penalty += layer.activity_l2 * float(np.sum(a * a))
        outputs.append(a)
        h = a
    return h, inputs, masks, outputs, penalty


def pair_backward_vstack(model, pair_trace, dloss_dd):
    """pair_backward as it was while euclidean_distance returned a negated
    copy for the second member: each member's gradient scaled on its own,
    the two stacked by np.vstack, then one backward pass."""
    from siamtab.nn import backward

    scale = np.asarray(dloss_dd, dtype=np.float64).reshape(-1, 1)
    grad_a, grad_b = pair_trace.grad, -pair_trace.grad
    grad_out = np.vstack((scale * grad_a, scale * grad_b))
    return backward(pair_trace.trace, model.params, model.spec, grad_out)
