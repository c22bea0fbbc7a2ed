import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    forward_new_arrays,
    kink_free_input,
    max_rel_error,
    numeric_gradient,
    numeric_gradient_array,
    param_sum,
    random_small_spec,
    rel_error_array,
    row_distances_per_pair,
)
from siamtab import nn
from siamtab.nn import (
    LayerSpec,
    NetworkSpec,
    ParamSet,
    adam_step,
    backward,
    bce_loss,
    contrastive_loss,
    euclidean_distance,
    forward,
    infer,
    infer_rows,
    init_optimizer,
    init_params,
    load_checkpoint,
    rmsprop_step,
    row_distances,
    save_checkpoint,
)
from siamtab.train import base_network_spec, siamese_network_spec


def scalar_params(w, b):
    return ParamSet([np.array([[float(w)]])], [np.array([float(b)])])


LINEAR1 = NetworkSpec((LayerSpec(1, 1, "linear"),))
DTYPES = [np.float64, np.float32]


class TestSpecs:
    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            NetworkSpec((LayerSpec(2, 3), LayerSpec(4, 1)))

    def test_bad_layer_options(self):
        with pytest.raises(ValueError):
            LayerSpec(0, 1)
        with pytest.raises(ValueError):
            LayerSpec(1, 1, "tanh")
        with pytest.raises(ValueError):
            LayerSpec(1, 1, dropout_rate=1.0)
        with pytest.raises(ValueError):
            LayerSpec(1, 1, activity_l2=-0.1)


THREE_LAYERS = NetworkSpec(
    (LayerSpec(5, 8, "relu"), LayerSpec(8, 6, "relu"), LayerSpec(6, 3, "linear"))
)


class TestParamSet:
    def test_views_alias_the_flat_buffer(self):
        params = init_params(THREE_LAYERS, seed=40)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert params.flat.size == sum(a.size for a in params.arrays())
        for arr in params.arrays():
            assert np.shares_memory(arr, params.flat)
        params.flat[:] = np.arange(params.flat.size)
        assert params.weights[0][0, 1] == 1.0  # weights first, row-major
        assert params.biases[0][0] == sum(w.size for w in params.weights)
        params.biases[2][...] = -7.0
        assert np.all(params.flat[-3:] == -7.0)

    def test_constructor_copies_its_inputs(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        params = ParamSet([w], [b])
        params.weights[0][0, 0] = 5.0
        assert w[0, 0] == 1.0
        assert params.shapes == ((2, 3), (2,))

    def test_copy_and_zeros_like_are_independent(self):
        params = init_params(THREE_LAYERS, seed=41)
        before = params.flat.copy()
        for other in (ParamSet.zeros_like(params), ParamSet.empty_like(params)):
            assert other.shapes == params.shapes
            assert not np.shares_memory(other.flat, params.flat)
            for arr in other.arrays():
                assert np.shares_memory(arr, other.flat)
            other.flat[:] = 3.0
            assert np.array_equal(params.flat, before)
        assert np.all(ParamSet.zeros_like(params).flat == 0.0)


class TestInitParams:
    def test_glorot_bound(self):
        spec = NetworkSpec((LayerSpec(15, 256, "relu"),))
        params = init_params(spec, seed=0)
        limit = math.sqrt(6.0 / (15 + 256))  # ~0.14877
        assert params.weights[0].shape == (256, 15)
        assert np.all(np.abs(params.weights[0]) < limit)
        assert np.max(np.abs(params.weights[0])) > 0.5 * limit

    def test_biases_zero(self):
        spec = NetworkSpec((LayerSpec(4, 3, "relu"), LayerSpec(3, 2, "sigmoid")))
        params = init_params(spec, seed=1)
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_deterministic(self):
        spec = NetworkSpec((LayerSpec(4, 3, "relu"), LayerSpec(3, 2, "sigmoid")))
        a = init_params(spec, seed=2)
        b = init_params(spec, seed=2)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)


class TestForward:
    def test_single_linear_hand_case(self):
        out, _ = forward(scalar_params(2.0, 1.0), LINEAR1, np.array([[3.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 7.0

    def test_relu_definition(self):
        spec = NetworkSpec((LayerSpec(2, 2, "relu"),))
        params = ParamSet([np.eye(2)], [np.zeros(2)])
        out, _ = forward(params, spec, np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_dropout_identity_at_inference(self):
        spec_drop = NetworkSpec(
            (LayerSpec(3, 4, "relu", dropout_rate=0.175), LayerSpec(4, 1, "sigmoid", dropout_rate=0.175))
        )
        spec_plain = NetworkSpec((LayerSpec(3, 4, "relu"), LayerSpec(4, 1, "sigmoid")))
        params = init_params(spec_plain, seed=3)
        x = np.random.default_rng(4).normal(size=(6, 3))
        out_a, _ = forward(params, spec_drop, x, mode="infer")
        out_b, _ = forward(params, spec_plain, x, mode="infer")
        assert np.array_equal(out_a, out_b)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match=r"input shape \(1, 2\) is not \(n, 1\)"):
            forward(scalar_params(1, 0), LINEAR1, np.array([[1.0, 2.0]]))
        # a 15-vector for a 15-input network names the batch shape it needs
        spec = NetworkSpec((LayerSpec(15, 4, "relu"),))
        for x in (np.ones(15), np.ones((2, 15, 1))):
            with pytest.raises(ValueError, match=r"is not \(n, 15\)"):
                forward(init_params(spec, 0), spec, x)

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            forward(scalar_params(1, 0), LINEAR1, np.array([[np.nan]]))

    def test_train_dropout_needs_rng(self):
        spec = NetworkSpec((LayerSpec(1, 1, "linear", dropout_rate=0.5),))
        with pytest.raises(ValueError, match="rng"):
            forward(init_params(spec, 0), spec, np.array([[1.0]]), mode="train")

    def test_batch_shape(self):
        out, trace = forward(scalar_params(2.0, 0.0), LINEAR1, np.array([[1.0], [2.0]]))
        assert out.shape == (2, 1)
        assert len(trace) == 1

    def test_penalty_accumulates(self):
        spec = NetworkSpec((LayerSpec(2, 2, "linear", activity_l2=0.5),))
        params = ParamSet([np.eye(2)], [np.zeros(2)])
        _, trace = forward(params, spec, np.array([[1.0, 2.0]]))
        assert trace.penalty == 0.5 * (1.0 + 4.0)

    @pytest.mark.parametrize("spec_of", [base_network_spec, siamese_network_spec])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_in_place_layers_match_the_new_array_forward_bitwise(self, spec_of, mode):
        # the base spec covers the sigmoid head and the activity penalty
        spec = spec_of(15)
        params = init_params(spec, seed=6)
        x = np.random.default_rng(7).normal(size=(40, 15))
        x_before, flat_before = x.copy(), params.flat.copy()
        out, trace = forward(params, spec, x, mode=mode, rng=np.random.default_rng(8))
        want, inputs, masks, outputs, penalty = forward_new_arrays(
            params, spec, x, mode=mode, rng=np.random.default_rng(8)
        )
        assert np.array_equal(out, want)
        for got, ref in zip((trace.inputs, trace.masks, trace.outputs), (inputs, masks, outputs)):
            assert len(got) == len(ref) == len(spec.layers)
            for a, b in zip(got, ref):
                assert (a is None and b is None) or np.array_equal(a, b)
        assert (trace.masks[0] is None) == (mode == "infer")
        assert trace.penalty == penalty
        assert (penalty > 0.0) == (spec_of is base_network_spec)
        assert np.array_equal(x, x_before) and np.array_equal(params.flat, flat_before)

    def test_infer_mode_computes_whole_batch_layers(self, monkeypatch):
        # only nn.infer goes piece by piece; forward's trace and penalty are
        # whole-batch layers
        spec = siamese_network_spec(15)
        params = init_params(spec, seed=16)
        x = np.random.default_rng(17).normal(size=(848, 15))

        def no_pieces(params, xb, outs):
            raise AssertionError("forward called infer_rows")

        monkeypatch.setattr(nn, "infer_rows", no_pieces)
        out, trace = forward(params, spec, x)
        assert out.shape == (848, spec.out_size)
        assert len(trace) == len(spec.layers)

    def test_inverted_dropout_expectation(self):
        # Monte Carlo over 1e5 masks: E[dropout(z)] == z within 1%
        spec = NetworkSpec((LayerSpec(2, 2, "relu", dropout_rate=0.3),))
        params = ParamSet([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
        x = np.tile(np.array([1.7, 0.6]), (100_000, 1))
        out, _ = forward(params, spec, x, mode="train", rng=np.random.default_rng(5))
        ref, _ = forward(params, spec, x[:1], mode="infer")
        mc = out.mean(axis=0)
        assert np.all(np.abs(mc - ref[0]) / ref[0] < 0.01)


class TestRowDistances:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 2500])
    def test_match_the_per_pair_norm_bitwise(self, n, dtype):
        # two tables of different heights, indices repeated and in no order;
        # then a against itself, every third pair a self-pair at the floor
        rng = np.random.default_rng(n)
        a = rng.normal(size=(100, 256)).astype(dtype)
        b = (rng.normal(size=(40, 256)) + 0.5).astype(dtype)
        ia, ib = rng.integers(0, 100, n), rng.integers(0, 40, n)
        ja = rng.integers(0, 100, n)
        ja[::3] = ia[::3]
        if n > 100:
            assert len(np.unique(ia)) < n and (np.diff(ia) < 0).any()
        cases = [(a, ia, b, ib), (a, ia, a, ja)]
        wants = [row_distances_per_pair(*case) for case in cases]
        assert (wants[1][::3] == np.sqrt(np.dtype(dtype).type(1e-12))).all()
        for case, want in zip(cases, wants):
            got = row_distances(*case)
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513, 2500, 10000])
    def test_blocks_share_one_buffer_pair(self, n, dtype):
        # beyond the n distances, the only sizeable allocation is one
        # (2, DIST_BLOCK_ROWS, emb) buffer, whatever the number of blocks;
        # a buffer per block, or a whole-batch difference, is far larger
        rng = np.random.default_rng(n)
        a = rng.normal(size=(400, 64)).astype(dtype)
        b = rng.normal(size=(300, 64)).astype(dtype)
        ia, ib = rng.integers(0, 400, n), rng.integers(0, 300, n)
        item = np.dtype(dtype).itemsize
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            got = row_distances(a, ia, b, ib)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, row_distances_per_pair(a, ia, b, ib))
        want = n * item + 2 * min(n, nn.DIST_BLOCK_ROWS) * 64 * item
        assert want <= peak - before <= want + 16384


class TestPieces:
    @pytest.mark.parametrize("rows", [1, 7, 128, 256])
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 255, 256, 257, 4240])
    def test_are_array_splits_contiguous_bounds(self, n, rows):
        pieces = list(nn._pieces(n, rows))
        want = np.array_split(np.arange(n), max(1, -(-n // rows)))
        assert pieces == [(int(p[0]), int(p[-1]) + 1) if len(p) else (0, 0) for p in want]
        # in order, each row once, none over `rows`, at least half when split
        assert [start for start, _ in pieces] == [0] + [stop for _, stop in pieces[:-1]]
        assert pieces[-1][1] == n
        assert all(stop - start <= rows for start, stop in pieces)
        if len(pieces) > 1:
            assert all(stop - start >= rows // 2 for start, stop in pieces)


class TestInfer:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("spec_of", [base_network_spec, siamese_network_spec])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 848, 3392])
    def test_matches_forward_bitwise(self, spec_of, n, dtype):
        # the base spec covers the sigmoid head after the ReLU run; a float64
        # x is cast to the parameters' dtype by both
        spec = spec_of(15)
        params = init_params(spec, seed=10, dtype=dtype)
        x = np.random.default_rng(n).normal(size=(n, 15))
        x_before = x.copy()
        want, _ = forward(params, spec, x)
        got = infer(params, spec, x)
        assert got.shape == (n, spec.out_size)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        assert np.array_equal(x, x_before)

    @pytest.mark.parametrize("n", [0, 1, 127, 128, 255, 256, 257, 4240])
    def test_pieces_cover_the_rows_once(self, monkeypatch, n):
        # column 0 numbers the rows, so each piece infer_rows is handed
        # names the rows it holds
        spec = siamese_network_spec(15)
        params = init_params(spec, seed=18)
        x = np.random.default_rng(19).normal(size=(n, 15))
        x[:, 0] = np.arange(n)
        pieces = []

        def recording_infer_rows(params, xb, outs):
            pieces.append(xb[:, 0].tolist())
            return infer_rows(params, xb, outs)

        monkeypatch.setattr(nn, "infer_rows", recording_infer_rows)
        infer(params, spec, x)
        # np.array_split's bounds, in order, each piece run once
        want = np.array_split(np.arange(n), max(1, -(-n // nn.INFER_PIECE_ROWS)))
        assert pieces == [p.tolist() for p in want]
        assert all(len(p) <= nn.INFER_PIECE_ROWS for p in pieces)
        if len(pieces) > 1:
            assert all(len(p) >= nn.INFER_PIECE_ROWS // 2 for p in pieces)

    @pytest.mark.parametrize(
        "layers",
        [
            ((3, 4, "sigmoid"), (4, 2, "relu")),  # no leading ReLU run
            ((3, 4, "relu"), (4, 5, "linear"), (5, 2, "relu")),  # a ReLU after the run
            ((3, 1, "linear"),),
        ],
    )
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_any_layer_order_matches_forward(self, layers, dtype):
        spec = NetworkSpec(tuple(LayerSpec(*layer) for layer in layers))
        params = init_params(spec, seed=11, dtype=dtype)
        x = np.random.default_rng(12).normal(size=(600, 3))
        assert np.array_equal(infer(params, spec, x), forward(params, spec, x)[0])

    @pytest.mark.parametrize(
        "x",
        [np.ones(15), np.ones((300, 15, 1)), np.ones((300, 14)), np.full((300, 15), np.inf)],
        ids=["vector", "3-d", "width", "non-finite"],
    )
    def test_refuses_what_forward_refuses_with_its_message(self, x):
        spec = base_network_spec(15)
        params = init_params(spec, seed=13)
        with pytest.raises(ValueError) as want:
            forward(params, spec, x)
        with pytest.raises(ValueError) as got:
            infer(params, spec, x)
        assert str(got.value) == str(want.value)

    def test_hidden_layers_stay_piece_sized(self, monkeypatch):
        # infer keeps only the run's last layer whole, each piece's hidden
        # layer in a temporary of at most INFER_PIECE_ROWS rows
        spec = siamese_network_spec(15)
        params = init_params(spec, seed=14)
        x = np.random.default_rng(15).normal(size=(848, 15))
        bases = []

        def recording_infer_rows(params, xb, outs):
            bases.append([o.base.shape for o in outs])
            return infer_rows(params, xb, outs)

        monkeypatch.setattr(nn, "infer_rows", recording_infer_rows)
        infer(params, spec, x)
        assert len(bases) == 4
        assert all(shapes == [(256, 256)] * 2 + [(848, 256)] for shapes in bases)

    @pytest.mark.parametrize("spec_of", [base_network_spec, siamese_network_spec])
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 848, 4240])
    def test_every_piece_reuses_one_set_of_temporaries(self, monkeypatch, spec_of, n):
        # one piece-sized array per hidden layer of the ReLU run, made once
        # and shared by every piece; each piece writes its rows of one
        # whole-batch output
        spec = spec_of(15)
        params = init_params(spec, seed=20)
        x = np.random.default_rng(21).normal(size=(n, 15))
        bases = []

        def recording_infer_rows(params, xb, outs):
            bases.append([o.base for o in outs])
            return infer_rows(params, xb, outs)

        monkeypatch.setattr(nn, "infer_rows", recording_infer_rows)
        got = infer(params, spec, x)
        assert len(bases) == max(1, -(-n // nn.INFER_PIECE_ROWS))
        hidden = len(bases[0]) - 1
        assert hidden == sum(l.activation == "relu" for l in spec.layers) - 1
        for k in range(hidden + 1):
            assert all(piece[k] is bases[0][k] for piece in bases)
        assert len({id(base) for base in bases[0]}) == hidden + 1
        assert [t.shape for t in bases[0][:-1]] == [(min(n, nn.INFER_PIECE_ROWS), 256)] * hidden
        assert bases[0][-1].shape == (n, 256)
        if spec_of is siamese_network_spec:
            assert got is bases[0][-1]


class TestBackward:
    def test_linear_hand_case(self):
        params = scalar_params(2.0, 0.0)
        _, trace = forward(params, LINEAR1, np.array([[3.0]]))
        grads = backward(trace, params, LINEAR1, np.array([[1.0]]))
        assert grads.weights[0][0, 0] == 3.0
        assert grads.biases[0][0] == 1.0

    def test_zero_grad_out_zero_l2(self):
        spec = NetworkSpec((LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "sigmoid")))
        params = init_params(spec, seed=6)
        _, trace = forward(params, spec, np.random.default_rng(7).normal(size=(5, 3)))
        grads = backward(trace, params, spec, np.zeros((5, 2)))
        for arr in grads.arrays():
            assert np.all(arr == 0.0)

    def test_342_network_finite_differences(self):
        # functional: sum(c * output) + activity penalty, fd oracle at h=1e-5
        spec = NetworkSpec(
            (LayerSpec(3, 4, "relu", activity_l2=0.01), LayerSpec(4, 2, "sigmoid"))
        )
        rng = np.random.default_rng(8)
        params = init_params(spec, seed=9)
        x = kink_free_input(rng, spec, params, 3)
        c = rng.normal(size=(3, 2))

        def loss():
            out, trace = forward(params, spec, x)
            return float(np.sum(c * out)) + trace.penalty

        _, trace = forward(params, spec, x)
        analytic = backward(trace, params, spec, c)
        numeric = numeric_gradient(loss, params)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_trace_spec_mismatch(self):
        params = scalar_params(1.0, 0.0)
        _, trace = forward(params, LINEAR1, np.array([[1.0]]))
        two_layer = NetworkSpec((LayerSpec(1, 1), LayerSpec(1, 1)))
        with pytest.raises(ValueError, match="trace"):
            backward(trace, params, two_layer, np.array([[1.0]]))


class TestBceLoss:
    def test_hand_values(self):
        loss, _ = bce_loss(0.5, 1.0, (1.0, 5.0))
        assert abs(loss - 5.0 * math.log(2.0)) < 1e-9
        loss0, _ = bce_loss(0.5, 0.0, (1.0, 5.0))
        assert abs(loss0 - math.log(2.0)) < 1e-9

    def test_weight_linearity(self):
        base, _ = bce_loss(0.3, 1.0, (1.0, 1.0))
        scaled, _ = bce_loss(0.3, 1.0, (1.0, 5.0))
        assert abs(scaled - 5.0 * base) < 1e-12

    def test_clamping_keeps_loss_finite(self):
        for p, y in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0)):
            loss, grad = bce_loss(p, y)
            assert np.isfinite(loss) and np.isfinite(grad)

    def test_gradient_matches_finite_differences(self):
        for p in (0.2, 0.5, 0.9):
            for y in (0.0, 1.0):
                _, grad = bce_loss(p, y, (1.0, 3.0))
                h = 1e-7
                num = (bce_loss(p + h, y, (1.0, 3.0))[0] - bce_loss(p - h, y, (1.0, 3.0))[0]) / (2 * h)
                assert abs(grad - num) < 1e-5

    def test_vectorized(self):
        loss, grad = bce_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]), (1.0, 5.0))
        assert loss.shape == (2,)
        assert abs(loss[0] - 5.0 * math.log(2.0)) < 1e-9


def contrastive_one(d, similar, margin=1.0):
    """contrastive_loss of a 1-element batch, unpacked to its one entry."""
    loss, grad = contrastive_loss(np.array([d]), np.array([similar]), margin)
    assert loss.shape == grad.shape == (1,)
    return loss[0], grad[0]


class TestContrastiveLoss:
    def test_similar_at_zero(self):
        loss, grad = contrastive_one(0.0, True)
        assert loss == 0.0 and grad == 0.0

    def test_dissimilar_beyond_margin(self):
        loss, grad = contrastive_one(1.2, False)
        assert loss == 0.0 and grad == 0.0

    def test_dissimilar_inside_margin(self):
        loss, grad = contrastive_one(0.6, False)
        assert abs(loss - 0.16) < 1e-9
        assert abs(grad - (-0.8)) < 1e-9

    def test_similar_quadratic(self):
        loss, grad = contrastive_one(0.7, True)
        assert abs(loss - 0.49) < 1e-12
        assert abs(grad - 1.4) < 1e-12

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(12)
        d = rng.uniform(0.0, 3.0, size=500)
        sim = rng.random(500) < 0.5
        loss, _ = contrastive_loss(d, sim, 1.0)
        assert np.all(loss >= 0.0)
        # zero exactly when similar at d=0 or dissimilar beyond the margin
        zero = loss == 0.0
        assert np.array_equal(zero, np.where(sim, d == 0.0, d >= 1.0))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            contrastive_one(-0.1, True)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_margin(self, margin):
        with pytest.raises(ValueError, match="^margin must be a finite positive number, got "):
            contrastive_one(0.5, False, margin)


class TestEuclideanDistance:
    def test_345_triangle(self):
        d, g = euclidean_distance(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))
        assert d.shape == (1,) and d[0] == 5.0
        assert np.allclose(g, [[0.6, 0.8]])

    def test_coincident_floor(self):
        e = np.array([[1.0, 2.0, 3.0]])
        d, g = euclidean_distance(e, e.copy())
        assert d[0] == 1e-6  # sqrt of the 1e-12 floor
        assert np.all(np.isfinite(g))

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        da, _ = euclidean_distance(a, b)
        db, _ = euclidean_distance(b, a)
        assert np.array_equal(da, db)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a = rng.normal(size=(1, 8))
            b = rng.normal(size=(1, 8))
            d, g = euclidean_distance(a, b)
            assert d[0] > 0.1
            num1 = numeric_gradient_array(lambda: euclidean_distance(a, b)[0][0], a)
            num2 = numeric_gradient_array(lambda: euclidean_distance(a, b)[0][0], b)
            assert rel_error_array(g, num1) < 1e-4
            assert rel_error_array(-g, num2) < 1e-4

    def test_batched_rows(self):
        rng = np.random.default_rng(15)
        e1, e2 = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        d, g = euclidean_distance(e1, e2)
        assert d.shape == (6,)
        for i in range(6):
            di, gi = euclidean_distance(e1[i : i + 1], e2[i : i + 1])
            assert d[i] == di[0]
            assert np.array_equal(g[i], gi[0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            euclidean_distance(np.ones((1, 3)), np.ones((1, 4)))
        # vectors, scalars and 3-D stacks are refused, not indexed into
        for shape in ((3,), (), (2, 1, 3)):
            with pytest.raises(ValueError, match=r"not two equal \(n, emb\) batches"):
                euclidean_distance(np.ones(shape), np.ones(shape))


class TestAdam:
    def test_first_step_hand_case(self):
        params = scalar_params(0.0, 0.0)
        grads = ParamSet([np.array([[1.0]])], [np.array([0.0])])
        state = init_optimizer(params)
        adam_step(params, grads, state, lr=0.001)
        # hand evaluation with bias correction at t=1
        m_hat = (1 - 0.9) * 1.0 / (1 - 0.9)
        v_hat = (1 - 0.999) * 1.0 / (1 - 0.999)
        expected = -0.001 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(params.weights[0][0, 0] - expected) < 1e-9
        assert abs(params.weights[0][0, 0] - (-0.00099999999)) < 1e-9
        assert state.step_count == 1

    def test_zero_gradient_no_move(self):
        params = scalar_params(0.7, -0.2)
        state = init_optimizer(params)
        adam_step(params, ParamSet.zeros_like(params), state, lr=0.001)
        assert params.weights[0][0, 0] == 0.7
        assert params.biases[0][0] == -0.2

    def test_identical_parameters_stay_identical(self):
        params = ParamSet([np.array([[0.3], [0.3]])], [np.zeros(2)])
        state = init_optimizer(params)
        rng = np.random.default_rng(16)
        for _ in range(25):
            g = float(rng.normal())
            grads = ParamSet([np.array([[g], [g]])], [np.zeros(2)])
            adam_step(params, grads, state, lr=0.01)
            assert params.weights[0][0, 0] == params.weights[0][1, 0]

    def test_first_moment_made_by_the_first_step(self):
        params = scalar_params(0.0, 0.0)
        state = init_optimizer(params)
        assert state.m is None
        adam_step(params, ParamSet([np.array([[1.0]])], [np.array([0.0])]), state, lr=0.001)
        assert state.m.weights[0][0, 0] == (1 - 0.9) * 1.0

    def test_shape_mismatch(self):
        params = scalar_params(0.0, 0.0)
        state = init_optimizer(params)
        bad = ParamSet([np.ones((2, 2))], [np.zeros(1)])
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, bad, state, lr=0.001)


def random_grads(params, rng):
    return ParamSet(
        [rng.normal(size=w.shape) for w in params.weights],
        [rng.normal(size=b.shape) for b in params.biases],
        params.flat.dtype,
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lr_type", [float, np.float64])
class TestFlatOptimizersMatchPerArrayReference:
    """The in-place flat updates must be bitwise the per-array expressions
    below, the form the optimizers had before the flat store: that is what
    keeps fixed-seed base-model training byte-identical. In float32 too,
    where a numpy float64 lr must update as the Python float does: under
    NEP 50 it would take the update through float64."""

    @pytest.fixture(autouse=True)
    def setting(self, dtype, lr_type):
        self.dtype, self.lr = dtype, lr_type(0.003)

    def run(self, step, reference, steps=6):
        lr = self.lr
        params = init_params(THREE_LAYERS, seed=50, dtype=self.dtype)
        ref_p = [a.copy() for a in params.arrays()]
        ref_m = [np.zeros_like(a) for a in ref_p]
        ref_v = [np.zeros_like(a) for a in ref_p]
        state = init_optimizer(params)
        rng = np.random.default_rng(51)
        for t in range(1, steps + 1):
            grads = random_grads(params, rng)
            step(params, grads, state, lr)
            for i, g in enumerate(grads.arrays()):
                ref_p[i], ref_m[i], ref_v[i] = reference(
                    ref_p[i], g, ref_m[i], ref_v[i], t, float(lr)
                )
            for got, want in zip(params.arrays(), ref_p):
                assert got.dtype == want.dtype == self.dtype
                assert np.array_equal(got, want)
            for got, want in zip(state.v.arrays(), ref_v):
                assert np.array_equal(got, want)
        assert state.step_count == steps

    def test_adam(self):
        def reference(p, g, m, v, t, lr):
            m = m * 0.9 + (1.0 - 0.9) * g
            v = v * 0.999 + (1.0 - 0.999) * g * g
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            return p - lr * (m / c1) / (np.sqrt(v / c2) + 1e-8), m, v

        self.run(adam_step, reference)

    def test_rmsprop(self):
        def reference(p, g, m, v, t, lr):
            v = v * 0.9 + (1.0 - 0.9) * g * g
            return p - lr * g / (np.sqrt(v) + 1e-8), m, v

        self.run(rmsprop_step, reference)


class TestRmsprop:
    def test_first_step_hand_case(self):
        params = scalar_params(0.0, 0.0)
        grads = ParamSet([np.array([[1.0]])], [np.array([0.0])])
        state = init_optimizer(params)
        rmsprop_step(params, grads, state, lr=0.001)
        cache = (1 - 0.9) * 1.0
        expected = -0.001 * 1.0 / (math.sqrt(cache) + 1e-8)
        assert abs(params.weights[0][0, 0] - expected) < 1e-9
        assert abs(params.weights[0][0, 0] - (-0.0031623)) < 1e-6
        assert state.v.weights[0][0, 0] == cache

    def test_zero_gradient_no_move(self):
        params = scalar_params(1.5, 0.0)
        state = init_optimizer(params)
        rmsprop_step(params, ParamSet.zeros_like(params), state, lr=0.001)
        assert params.weights[0][0, 0] == 1.5

    def test_no_first_moment(self):
        params = scalar_params(0.0, 0.0)
        state = init_optimizer(params)
        rmsprop_step(params, ParamSet([np.array([[1.0]])], [np.array([0.0])]), state, lr=0.001)
        assert state.m is None

    def test_update_magnitude_sign_symmetric(self):
        for g in (0.25, 2.0):
            up = scalar_params(0.0, 0.0)
            down = scalar_params(0.0, 0.0)
            rmsprop_step(up, ParamSet([np.array([[g]])], [np.zeros(1)]),
                         init_optimizer(up), lr=0.01)
            rmsprop_step(down, ParamSet([np.array([[-g]])], [np.zeros(1)]),
                         init_optimizer(down), lr=0.01)
            assert abs(up.weights[0][0, 0]) == abs(down.weights[0][0, 0])

    def test_bitwise_deterministic_sequence(self):
        rng = np.random.default_rng(17)
        gs = [rng.normal(size=(3, 2)) for _ in range(10)]
        results = []
        for _ in range(2):
            params = ParamSet([np.zeros((3, 2))], [np.zeros(3)])
            state = init_optimizer(params)
            for g in gs:
                rmsprop_step(params, ParamSet([g.copy()], [np.zeros(3)]), state, lr=0.005)
            results.append(params.weights[0].copy())
        assert np.array_equal(results[0], results[1])


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_round_trip_bitwise(self, tmp_path, dtype):
        spec = NetworkSpec(
            (LayerSpec(3, 4, "relu", 0.2, 0.01), LayerSpec(4, 2, "sigmoid"))
        )
        params = init_params(spec, seed=18, dtype=dtype)
        extra = {"kind": "test", "margin": 1.0}
        arrays = {"refs0": np.random.default_rng(19).normal(size=(5, 3))}
        path = tmp_path / "model.npz"
        save_checkpoint(path, spec, params, extra, arrays)
        spec2, params2, extra2, arrays2 = load_checkpoint(path)
        assert spec2 == spec
        assert params2.flat.dtype == dtype
        for a, b in zip(params.arrays(), params2.arrays()):
            assert np.array_equal(a, b)
        assert extra2 == extra
        assert np.array_equal(arrays2["refs0"], arrays["refs0"])

    def test_array_shapes_checked_against_spec(self, tmp_path):
        spec = NetworkSpec((LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "linear")))
        params = init_params(spec, seed=20, dtype=np.float32)
        path = tmp_path / "model.npz"
        save_checkpoint(path, spec, params)
        with np.load(path) as data:
            stored = dict(data)
        stored["w1"] = stored["w1"][:, :3]
        np.savez(path, **stored)
        with pytest.raises(ValueError, match=r"w1 has shape \(2, 3\).*\(2, 4\)"):
            load_checkpoint(path)
        del stored["w1"]
        np.savez(path, **stored)
        with pytest.raises(ValueError, match="no array w1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", ["1", "99", "true", "2.0", '"2"', "null"])
    def test_version_checked(self, tmp_path, version):
        # only the JSON integer 2: a 2.0 equals it; version 1 held float64
        # weights and has no load path
        path = tmp_path / "bad.npz"
        np.savez(path, meta=np.array(f'{{"version": {version}, "layers": [], "extra": {{}}}}'))
        with pytest.raises(nn.CheckpointVersionError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: unsupported checkpoint version {version}"

    def test_parameters_of_another_dtype_are_not_saved(self, tmp_path):
        spec = NetworkSpec((LayerSpec(3, 2, "relu"),))
        path = tmp_path / "model.npz"
        with pytest.raises(ValueError) as err:
            save_checkpoint(path, spec, init_params(spec, seed=21, dtype=np.float16))
        assert str(err.value) == "checkpoint parameters must be float32 or float64, got float16"
        assert not path.exists()

    @pytest.mark.parametrize("dtype", ['"float16"', "null", '["float32"]'])
    def test_dtype_other_than_float32_or_float64_refused(self, tmp_path, dtype):
        path = self.saved_with(tmp_path, "meta", lambda meta: np.array(
            str(meta).replace('"dtype": "float32"', f'"dtype": {dtype}')
        ))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: checkpoint dtype {dtype} is not float32 or float64"

    def test_float64_weights_refused(self, tmp_path):
        path = self.saved_with(tmp_path, "w1", lambda w: w.astype(np.float64))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: array w1 has dtype float64, expected float32"

    @pytest.mark.parametrize(
        "damage,fault",
        [
            ("truncated", "BadZipFile: File is not a zip file"),
            ("an npy file", "BadZipFile: File is not a zip file"),
            ("no meta", "KeyError: 'meta is not a file in the archive'"),
            ("meta not JSON", "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
            ("meta a list", "AttributeError: 'list' object has no attribute 'get'"),
            ("no layers", "KeyError: 'layers'"),
            ("a layer without its activation", "KeyError: 'activation'"),
            ("no extra", "KeyError: 'extra'"),
            ("no dtype", "KeyError: 'dtype'"),
        ],
    )
    def test_unreadable_file_names_itself(self, tmp_path, damage, fault):
        spec = NetworkSpec((LayerSpec(3, 2, "relu"),))
        path = tmp_path / "model.npz"
        save_checkpoint(path, spec, init_params(spec, seed=21, dtype=np.float32), {"kind": "test"})
        with np.load(path) as data:
            stored = dict(data)
        meta = json.loads(str(stored["meta"]))
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-100])
        elif damage == "an npy file":
            np.save(tmp_path / "w0.npy", stored["w0"])
            (tmp_path / "w0.npy").rename(path)
        else:
            if damage == "no meta":
                del stored["meta"]
            elif damage == "meta not JSON":
                stored["meta"] = np.array("not json")
            elif damage == "meta a list":
                stored["meta"] = np.array("[1]")
            else:
                if damage == "no layers":
                    del meta["layers"]
                elif damage == "no dtype":
                    del meta["dtype"]
                elif damage == "no extra":
                    del meta["extra"]
                else:
                    del meta["layers"][0]["activation"]
                stored["meta"] = np.array(json.dumps(meta))
            np.savez(path, **stored)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: not a readable checkpoint ({fault})"

    @staticmethod
    def saved_with(tmp_path, name, value):
        """A saved checkpoint with member `name` replaced by value(member)."""
        spec = NetworkSpec((LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "linear")))
        path = tmp_path / "model.npz"
        arrays = {"refs0": np.ones((2, 3)), "refs1": np.zeros((2, 3))}
        params = init_params(spec, seed=22, dtype=np.float32)
        save_checkpoint(path, spec, params, {"kind": "test"}, arrays)
        with np.load(path) as data:
            stored = dict(data)
        stored[name] = value(stored[name])
        np.savez(path, **stored)
        return path

    def test_pickled_object_array_names_the_file(self, tmp_path):
        path = self.saved_with(tmp_path, "b1", lambda b: b.astype(object))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"{path}: not a readable checkpoint "
            "(ValueError: Object arrays cannot be loaded when allow_pickle=False)"
        )

    def test_complex_bias_refused_without_a_warning(self, tmp_path):
        path = self.saved_with(tmp_path, "b1", lambda b: b + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning: nothing is cast
            with pytest.raises(ValueError) as err:
                load_checkpoint(path)
        assert str(err.value) == f"{path}: array b1 has dtype complex64, expected float32"

    def test_numeric_string_weights_refused(self, tmp_path):
        path = self.saved_with(tmp_path, "w0", lambda w: w.astype(str))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: array w0 has dtype <U")
        assert str(err.value).endswith(", expected float32")

    @pytest.mark.parametrize("dtype", ["float32", "int64"])
    def test_reference_array_of_another_dtype_refused(self, tmp_path, dtype):
        path = self.saved_with(tmp_path, "refs1", lambda r: r.astype(dtype))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: array refs1 has dtype {dtype}, expected float64"

    def test_extra_that_is_not_an_object_names_the_file(self, tmp_path):
        path = tmp_path / "model.npz"
        meta = {"version": nn.CHECKPOINT_VERSION, "layers": [], "extra": [1]}
        np.savez(path, meta=np.array(json.dumps(meta)))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: checkpoint extra is not a JSON object"


class TestGradientFidelity:
    """Whole-loss gradient checks for both heads on random small networks."""

    @pytest.mark.parametrize("trial", range(12))
    def test_bce_head(self, trial):
        rng = np.random.default_rng(100 + trial)
        spec = random_small_spec(rng, "bce")
        params = init_params(spec, seed=200 + trial)
        n = int(rng.integers(1, 5))
        x = kink_free_input(rng, spec, params, n)
        y = rng.integers(0, 2, n).astype(np.float64)
        weights = (1.0, 5.0) if trial % 2 else (1.0, 1.0)

        def loss():
            out, trace = forward(params, spec, x)
            losses, _ = bce_loss(out[:, 0], y, weights)
            return float(losses.mean()) + trace.penalty

        out, trace = forward(params, spec, x)
        _, dldp = bce_loss(out[:, 0], y, weights)
        analytic = backward(trace, params, spec, (dldp / n)[:, None])
        numeric = numeric_gradient(loss, params)
        assert max_rel_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("trial", range(12))
    def test_contrastive_head(self, trial):
        rng = np.random.default_rng(300 + trial)
        spec = random_small_spec(rng, "contrastive")
        params = init_params(spec, seed=400 + trial)
        a = kink_free_input(rng, spec, params, 1)
        b = kink_free_input(rng, spec, params, 1)
        margin = 1.0

        ea, _ = forward(params, spec, a)
        eb, _ = forward(params, spec, b)
        d0, _ = euclidean_distance(ea, eb)
        # stay off the hinge kink for clean finite differences
        similar = np.array([True if abs(d0[0] - margin) < 1e-2 else bool(rng.integers(2))])

        def loss():
            ea, ta = forward(params, spec, a)
            eb, tb = forward(params, spec, b)
            d, _ = euclidean_distance(ea, eb)
            l, _ = contrastive_loss(d, similar, margin)
            return float(l[0]) + ta.penalty + tb.penalty

        _, ta = forward(params, spec, a)
        _, tb = forward(params, spec, b)
        e1, e2 = ta.outputs[-1], tb.outputs[-1]
        d, g = euclidean_distance(e1, e2)
        _, dldd = contrastive_loss(d, similar, margin)
        ga = backward(ta, params, spec, dldd[:, None] * g)
        gb = backward(tb, params, spec, dldd[:, None] * -g)
        analytic = param_sum(ga, gb)
        numeric = numeric_gradient(loss, params)
        assert max_rel_error(analytic, numeric) < 1e-4
