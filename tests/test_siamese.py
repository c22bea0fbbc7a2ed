import numpy as np
import pytest

from oracles import (
    kink_free_input,
    max_rel_error,
    mean_ref_distances_broadcast,
    numeric_gradient,
    pair_backward_vstack,
    param_sum,
)
from siamtab import nn
from siamtab import siamese as siamese_mod
from siamtab.data import FeatureTable
from siamtab.nn import (
    LayerSpec,
    NetworkSpec,
    ParamSet,
    backward,
    contrastive_loss,
    euclidean_distance,
    forward,
    infer_rows,
    init_params,
)
from siamtab.pairs import PairSet
from siamtab.siamese import (
    ReferenceBank,
    SiameseModel,
    build_reference_bank,
    classify_table,
    pair_backward,
    pair_forward,
)
from siamtab.train import evaluate_pairs, siamese_network_spec


def identity_model(width=1, threshold=0.5):
    """Linear model whose embedding equals its input, so distances are exact."""
    spec = NetworkSpec((LayerSpec(width, width, "linear"),))
    params = ParamSet([np.eye(width)], [np.zeros(width)])
    return SiameseModel(spec, params, margin=1.0, pair_threshold=threshold)


@pytest.mark.parametrize("name", ["margin", "pair_threshold"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.5])
def test_margin_and_threshold_must_be_finite_and_positive(name, value):
    spec = NetworkSpec((LayerSpec(2, 2, "linear"),))
    with pytest.raises(ValueError, match=f"{name} must be a finite positive number"):
        SiameseModel(spec, init_params(spec, 0), **{name: value})


def classify_one(model, bank, x):
    """classify_table on a one-row table: (label, mean_d0, mean_d1) of the row."""
    labels, d0, d1 = classify_table(model, bank, FeatureTable(np.asarray(x)[None, :], [0]))
    return int(labels[0]), float(d0[0]), float(d1[0])


def random_model(seed, in_size=6, emb=5):
    spec = NetworkSpec((LayerSpec(in_size, 7, "relu"), LayerSpec(7, emb, "relu")))
    return SiameseModel(spec, init_params(spec, seed))


class TestPairForward:
    def test_identical_inputs_hit_distance_floor(self):
        model = random_model(0)
        x = np.random.default_rng(1).normal(size=(1, 6))
        d, _ = pair_forward(model, x, x.copy())
        assert d.shape == (1,)
        assert d[0] == pytest.approx(1e-6, abs=1e-12)

    def test_symmetry_in_infer_mode(self):
        model = random_model(2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
            dab, _ = pair_forward(model, a, b)
            dba, _ = pair_forward(model, b, a)
            assert np.array_equal(dab, dba)

    def test_nonnegative(self):
        model = random_model(4)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(20, 6)), rng.normal(size=(20, 6))
        d, _ = pair_forward(model, a, b)
        assert np.all(d >= 0.0)

    def test_shared_store_is_structural(self):
        spec = NetworkSpec((LayerSpec(3, 2, "linear"),))
        params = init_params(spec, 6)
        model = SiameseModel(spec, params)
        assert model.params is params  # one store serves both branches

    def test_member_shape_mismatch_rejected(self):
        model = random_model(38)
        with pytest.raises(ValueError, match="pair member shapes"):
            pair_forward(model, np.zeros((3, 6)), np.zeros((2, 6)))
        with pytest.raises(ValueError, match="pair member shapes"):
            pair_forward(model, np.zeros(6), np.zeros((1, 6)))
        # two vectors are not read as a stacked batch of two rows
        with pytest.raises(ValueError, match=r"not two equal \(n, d\) batches"):
            pair_forward(model, np.zeros(6), np.zeros(6))

    def test_stacked_pass_matches_separate_branches(self):
        model = random_model(39)
        rng = np.random.default_rng(40)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        d, traces = pair_forward(model, a, b)
        ea, _ = forward(model.params, model.spec, a)
        eb, _ = forward(model.params, model.spec, b)
        assert np.allclose(d, euclidean_distance(ea, eb)[0], rtol=1e-12, atol=0.0)
        assert traces.trace.outputs[-1].shape == (8, 5)

    def test_branches_get_independent_dropout(self):
        spec = NetworkSpec((LayerSpec(4, 64, "relu", dropout_rate=0.5),))
        model = SiameseModel(spec, init_params(spec, 7))
        x = np.abs(np.random.default_rng(8).normal(size=(1, 4))) + 0.5
        d, _ = pair_forward(model, x, x.copy(), mode="train", rng=np.random.default_rng(9))
        assert d[0] > 1e-3  # identical inputs diverge only via differing masks


class TestPairBackward:
    def test_matches_finite_differences(self):
        spec = NetworkSpec((LayerSpec(4, 6, "relu"), LayerSpec(6, 5, "relu")))
        params = init_params(spec, 10)
        model = SiameseModel(spec, params)
        rng = np.random.default_rng(11)
        a = kink_free_input(rng, spec, params, 1)
        b = kink_free_input(rng, spec, params, 1)
        similar = np.array([False])

        def loss():
            d, _ = pair_forward(model, a, b)
            l, _ = contrastive_loss(d, similar, model.margin)
            return float(l[0])

        d, traces = pair_forward(model, a, b)
        assert abs(d[0] - model.margin) > 1e-2
        _, dldd = contrastive_loss(d, similar, model.margin)
        analytic = pair_backward(model, traces, dldd)
        numeric = numeric_gradient(loss, params)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_matches_two_trace_reference(self):
        # reference: each branch forwarded and backpropagated on its own,
        # gradients summed afterwards
        model = random_model(41)
        rng = np.random.default_rng(42)
        a, b = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        dldd = rng.normal(size=5)
        _, traces = pair_forward(model, a, b)
        stacked = pair_backward(model, traces, dldd)
        ea, ta = forward(model.params, model.spec, a)
        eb, tb = forward(model.params, model.spec, b)
        _, g = euclidean_distance(ea, eb)
        grads_a = backward(ta, model.params, model.spec, dldd[:, None] * g)
        grads_b = backward(tb, model.params, model.spec, dldd[:, None] * -g)
        reference = param_sum(grads_a, grads_b)
        for x, y in zip(stacked.arrays(), reference.arrays()):
            assert np.allclose(x, y, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("upstream", ["zero", "negative", "mixed"])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_matches_the_vstack_oracle_bitwise(self, monkeypatch, upstream, mode):
        # the negated half must give the upstream gradient and the parameter
        # gradients of the two scaled copies bit for bit, signed zeros too
        spec = siamese_network_spec(6)
        model = SiameseModel(spec, init_params(spec, 43))
        rng = np.random.default_rng(44)
        a, b = rng.normal(size=(2, 32, 6))
        b[0] = a[0]  # in infer mode a pair at the distance floor: a zero gradient row
        dldd = {
            "zero": np.zeros(32),
            "negative": -np.abs(rng.normal(size=32)),
            "mixed": np.concatenate(([0.0, -0.0], rng.normal(size=30))),
        }[upstream]
        _, traces = pair_forward(model, a, b, mode=mode, rng=np.random.default_rng(45))
        upstreams = []

        def recording_backward(trace, params, spec, grad_out):
            upstreams.append(grad_out.copy())
            return backward(trace, params, spec, grad_out)

        monkeypatch.setattr(nn, "backward", recording_backward)
        monkeypatch.setattr(siamese_mod, "backward", recording_backward)
        got = pair_backward(model, traces, dldd)
        want = pair_backward_vstack(model, traces, dldd)
        assert upstreams[0].tobytes() == upstreams[1].tobytes()
        assert got.flat.tobytes() == want.flat.tobytes()

    def test_zero_upstream_gives_zero_grads(self):
        model = random_model(12)
        a, b = np.random.default_rng(13).normal(size=(2, 1, 6))
        _, traces = pair_forward(model, a, b)
        grads = pair_backward(model, traces, np.zeros(1))
        for arr in grads.arrays():
            assert np.all(arr == 0.0)

    def test_swap_symmetry(self):
        model = random_model(14)
        rng = np.random.default_rng(15)
        a, b = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
        _, t_ab = pair_forward(model, a, b)
        _, t_ba = pair_forward(model, b, a)
        g_ab = pair_backward(model, t_ab, np.ones(1))
        g_ba = pair_backward(model, t_ba, np.ones(1))
        for x, y in zip(g_ab.arrays(), g_ba.arrays()):
            assert np.allclose(x, y, atol=1e-12)

    def test_batched_matches_sum_of_singles(self):
        model = random_model(16)
        rng = np.random.default_rng(17)
        a, b = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        dldd = np.array([0.5, -1.0, 2.0])
        _, traces = pair_forward(model, a, b)
        batched = pair_backward(model, traces, dldd)
        summed = None
        for i in range(3):
            _, t = pair_forward(model, a[i : i + 1], b[i : i + 1])
            g = pair_backward(model, t, dldd[i : i + 1])
            summed = g if summed is None else param_sum(summed, g)
        for x, y in zip(batched.arrays(), summed.arrays()):
            assert np.allclose(x, y, atol=1e-12)


def verdict(model, a, b) -> bool:
    """evaluate_pairs' verdict on the one pair (a, b): similar iff the pair,
    flagged similar, lands in the true-positive cell."""
    ps = PairSet(FeatureTable(np.vstack((a, b)), [0, 0]), [0], [1], [True])
    report = evaluate_pairs(model, ps)
    return bool(report.confusion[1, 1] == 1)


class TestPairVerdict:
    """Pair verdicts as evaluate_pairs draws them, on the identity model."""

    def test_identical_inputs_similar(self):
        model = identity_model(width=6)
        x = np.random.default_rng(19).normal(size=6)
        assert verdict(model, x, x.copy()) is True

    def test_threshold_boundary(self):
        model = identity_model(threshold=0.5)
        zero = np.array([0.0])
        assert verdict(model, zero, np.array([0.49])) is True
        assert verdict(model, zero, np.array([0.51])) is False

    def test_symmetric(self):
        model = identity_model(width=6, threshold=3.0)
        rng = np.random.default_rng(21)
        for _ in range(5):
            a, b = rng.normal(size=6), rng.normal(size=6)
            assert verdict(model, a, b) == verdict(model, b, a)


class TestReferenceBank:
    def table(self, n0=20, n1=15, d=4, seed=22):
        rng = np.random.default_rng(seed)
        labels = np.array([0] * n0 + [1] * n1)
        return FeatureTable(rng.normal(size=(n0 + n1, d)), labels)

    def test_builds_k_per_class(self):
        bank = build_reference_bank(self.table(), 10, seed=23)
        assert bank.refs0.shape == (10, 4)
        assert bank.refs1.shape == (10, 4)

    def test_k_larger_than_class(self):
        with pytest.raises(ValueError, match="class 1"):
            build_reference_bank(self.table(n1=5), 10, seed=24)

    def test_deterministic(self):
        a = build_reference_bank(self.table(), 8, seed=25)
        b = build_reference_bank(self.table(), 8, seed=25)
        assert np.array_equal(a.refs0, b.refs0)
        assert np.array_equal(a.refs1, b.refs1)

    def test_sampling_without_replacement(self):
        bank = build_reference_bank(self.table(n0=25, n1=25), 20, seed=26)
        assert len(np.unique(bank.refs0, axis=0)) == 20
        assert len(np.unique(bank.refs1, axis=0)) == 20

    def test_references_come_from_right_class(self):
        ft = self.table()
        bank = build_reference_bank(ft, 10, seed=27)
        rows0 = {tuple(r) for r in ft.features[ft.labels == 0]}
        assert all(tuple(r) in rows0 for r in bank.refs0)


class TestClassify:
    def test_refs_equal_to_x_win(self):
        model = random_model(28)
        x = np.random.default_rng(29).normal(size=6)
        far = np.random.default_rng(30).normal(size=(3, 6)) + 5.0
        bank = ReferenceBank(np.tile(x, (3, 1)), far)
        label, d0, d1 = classify_one(model, bank, x)
        assert label == 0
        assert d0 < d1

    def test_swapping_banks_flips_label(self):
        model = random_model(31)
        rng = np.random.default_rng(32)
        bank = ReferenceBank(rng.normal(size=(4, 6)), rng.normal(size=(4, 6)) + 3.0)
        x = rng.normal(size=6)
        label, d0, d1 = classify_one(model, bank, x)
        flipped = ReferenceBank(bank.refs1, bank.refs0)
        label2, d0_2, d1_2 = classify_one(model, flipped, x)
        assert label2 == 1 - label
        assert d0_2 == d1 and d1_2 == d0

    def test_exact_tie_goes_to_class_1(self):
        model = identity_model()
        refs = np.array([[1.0]])
        bank = ReferenceBank(refs, refs.copy())
        label, d0, d1 = classify_one(model, bank, np.array([0.0]))
        assert d0 == d1
        assert label == 1

    def test_invariant_under_ref_permutation(self):
        model = random_model(33)
        rng = np.random.default_rng(34)
        refs0 = rng.normal(size=(6, 6))
        refs1 = rng.normal(size=(6, 6))
        x = rng.normal(size=6)
        base = classify_one(model, ReferenceBank(refs0, refs1), x)
        perm = rng.permutation(6)
        shuffled = classify_one(model, ReferenceBank(refs0[perm], refs1[perm]), x)
        assert base[0] == shuffled[0]
        assert base[1] == pytest.approx(shuffled[1], rel=1e-12)

    def test_embedding_scale_invariance_of_label(self):
        # scaling all embeddings by c > 0 scales both means by c exactly
        model = identity_model(width=3)
        scaled = identity_model(width=3)
        scaled.params.weights[0] *= 2.0
        rng = np.random.default_rng(35)
        bank = ReferenceBank(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
        for _ in range(10):
            x = rng.normal(size=3)
            l1, d0a, d1a = classify_one(model, bank, x)
            l2, d0b, d1b = classify_one(scaled, bank, x)
            assert l1 == l2
            assert d0b == pytest.approx(2.0 * d0a, rel=1e-12)
            assert d1b == pytest.approx(2.0 * d1a, rel=1e-12)

    @pytest.mark.parametrize(
        "shape,positions,message",
        [
            ((5, 3), [0, -1], "embedding positions out of range for 5 rows"),
            ((5, 3), [0, 5], "embedding positions out of range for 5 rows"),
            ((5, 3), [0, 1, 2], "embedding positions for 3 rows, not 2"),
            ((5, 2), [0, 1], r"embedding shape \(5, 2\) is not \(rows, 3\)"),
            ((5,), [0, 1], r"embedding shape \(5,\) is not \(rows, 3\)"),
        ],
    )
    def test_classify_table_refuses_an_embedding_that_does_not_hold_the_rows(
        self, shape, positions, message
    ):
        model = identity_model(width=3)
        bank = ReferenceBank(np.zeros((2, 3)), np.ones((2, 3)))
        ft = FeatureTable(np.zeros((2, 3)), [0, 1])
        with pytest.raises(ValueError, match=f"^{message}$"):
            classify_table(model, bank, ft, (np.zeros(shape), np.array(positions)))

    def test_classify_table_agrees_with_singles(self):
        model = random_model(36)
        rng = np.random.default_rng(37)
        bank = ReferenceBank(rng.normal(size=(4, 6)), rng.normal(size=(4, 6)))
        ft = FeatureTable(rng.normal(size=(12, 6)), rng.integers(0, 2, 12))
        labels, d0, d1 = classify_table(model, bank, ft)
        for i in range(12):
            li, d0i, d1i = classify_one(model, bank, ft.features[i])
            assert labels[i] == li
            # batched vs single-row BLAS products may differ in the last ulp
            assert d0[i] == pytest.approx(d0i, rel=1e-12)
            assert d1[i] == pytest.approx(d1i, rel=1e-12)


def float_model(seed, in_size=15):
    """The pair network with its Glorot float weights: products and sums
    round, so a batch that BLAS splits differently could change the bits."""
    spec = siamese_network_spec(in_size)
    return SiameseModel(spec, init_params(spec, seed))


class TestBlockedInference:
    @pytest.mark.parametrize("n", [1, 5, 256, 257, 300, 848, 4240])
    def test_embed_matches_one_forward_bitwise(self, monkeypatch, n):
        model = float_model(40)
        x = np.random.default_rng(n).normal(size=(n, 15))
        want, _ = forward(model.params, model.spec, x)
        pieces = []

        def recording_infer_rows(params, xb, outs):
            pieces.append(len(xb))
            return infer_rows(params, xb, outs)

        monkeypatch.setattr(nn, "infer_rows", recording_infer_rows)
        got = model.embed(x)
        assert np.array_equal(got, want)
        # the np.array_split pieces in order: one piece up to
        # INFER_PIECE_ROWS rows, past that 128 to 256 rows each
        n_pieces = -(-n // nn.INFER_PIECE_ROWS)
        assert pieces == [len(b) for b in np.array_split(np.arange(n), n_pieces)]
        if n_pieces > 1:
            assert min(pieces) >= nn.INFER_PIECE_ROWS // 2

    def test_embed_rejects_a_non_finite_input_as_forward_does(self):
        model = float_model(41)
        x = np.zeros((600, 15))
        x[555, 3] = np.nan
        with pytest.raises(ValueError, match="^non-finite input$"):
            model.embed(x)

    @pytest.mark.parametrize("shape", [(300,), (300, 15, 1), (300, 14)])
    def test_bad_input_shape_names_the_whole_input(self, shape):
        # longer than one block, so a check per block would name a block
        model = float_model(45)
        with pytest.raises(ValueError) as err:
            model.embed(np.ones(shape))
        assert str(err.value) == f"input shape {shape} is not (n, 15)"

    @pytest.mark.parametrize("k", [1, 3, 10, 17])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 848])
    def test_reference_distances_match_the_broadcast_bitwise(self, n, k):
        # n * 2k (row, reference) pairs: one nn.row_distances block up to
        # 256 pairs, past that several through the one buffer pair
        model = float_model(43)
        rng = np.random.default_rng(44)
        bank = ReferenceBank(rng.normal(size=(k, 15)), rng.normal(size=(k, 15)) + 0.5)
        x = rng.normal(size=(n, 15))
        want0, want1 = mean_ref_distances_broadcast(model, bank, x)
        d0, d1 = siamese_mod._mean_ref_distances(model, bank, model.embed(x), np.arange(n))
        assert np.array_equal(d0, want0) and np.array_equal(d1, want1)
        labels, t0, t1 = classify_table(model, bank, FeatureTable(x, np.zeros(n, dtype=int)))
        assert np.array_equal(t0, want0) and np.array_equal(t1, want1)
        assert np.array_equal(labels, (want1 <= want0).astype(np.int64))


class TestTrainedClassification:
    def test_accuracy_vs_embedding_space_oracles(self, synth_trained):
        model, bank = synth_trained.model, synth_trained.bank
        test = synth_trained.test
        preds, _, _ = classify_table(model, bank, test)
        acc = float((preds == test.labels).mean())
        assert acc > 0.95

        # oracle 1: plain-loop recomputation of the mean-distance protocol
        e0 = [model.embed(bank.refs0[j : j + 1]) for j in range(len(bank.refs0))]
        e1 = [model.embed(bank.refs1[j : j + 1]) for j in range(len(bank.refs0))]
        for i in range(test.n):
            ex = model.embed(test.features[i : i + 1])
            d0 = np.mean([euclidean_distance(ex, e)[0][0] for e in e0])
            d1 = np.mean([euclidean_distance(ex, e)[0][0] for e in e1])
            assert preds[i] == int(d1 <= d0)

        # oracle 2: brute-force nearest-centroid in embedding space
        train = synth_trained.train
        emb_train = model.embed(train.features)
        c0 = emb_train[train.labels == 0].mean(axis=0)
        c1 = emb_train[train.labels == 1].mean(axis=0)
        emb_test = model.embed(test.features)
        centroid_preds = (
            np.linalg.norm(emb_test - c1, axis=1) <= np.linalg.norm(emb_test - c0, axis=1)
        ).astype(int)
        centroid_acc = float((centroid_preds == test.labels).mean())
        assert centroid_acc > 0.95
        assert float((centroid_preds == preds).mean()) > 0.95
