import dataclasses
import inspect
import math
import re
import sys

import numpy as np
import pytest

from oracles import count_confusion, pair_distances_row_chunks
from siamtab import nn
from siamtab import siamese as siamese_mod
from siamtab import train as train_mod
from siamtab.data import FeatureTable, apply_norm, fit_norm, synth_generate, take_rows
from siamtab.nn import LayerSpec, NetworkSpec, ParamSet, init_params
from siamtab.pairs import PairSet, generate_pairs
from siamtab.siamese import ReferenceBank, SiameseModel, classify_table, pair_forward
from siamtab.train import (
    EvalReport,
    History,
    TrainConfig,
    base_config,
    base_network_spec,
    evaluate_classifier,
    evaluate_pairs,
    export_history,
    load_history,
    siamese_config,
    siamese_network_spec,
    train_base,
    train_siamese,
)


def normed_synth(n, d, imbalance, seed):
    ft = synth_generate(n, d, imbalance, seed)
    return apply_norm(ft, fit_norm(ft))


def recipe_defaults(trainer) -> dict:
    """The trainer's settings after cfg and its data; all keyword-only, so a
    positional call written for an older signature cannot set the wrong one."""
    params = list(inspect.signature(trainer).parameters.values())[2:]
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params)
    return {p.name: p.default for p in params}


class TestConfigs:
    def test_base_defaults(self):
        cfg = base_config()
        assert cfg.epochs == 250
        assert cfg.batch_size == 16
        assert cfg.learning_rate == 0.001
        assert recipe_defaults(train_base) == {"class_weights": (1.0, 5.0), "progress": None}
        assert train_mod.VAL_FRACTION == 0.25

    def test_siamese_defaults(self):
        cfg = siamese_config()
        assert cfg.epochs == 10
        assert cfg.batch_size == 64
        assert recipe_defaults(train_siamese) == {
            "margin": 1.0,
            "pair_threshold": None,  # margin / 2
            "progress": None,
        }

    def test_only_the_values_a_caller_varies(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "epochs", "batch_size", "learning_rate", "seed"
        ]

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            base_config(epochs=0)
        with pytest.raises(ValueError):
            base_config(batch_size=0)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_counts_must_be_integers(self, field, value):
        # 2.5 would fail later in range(); True would train one epoch
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            base_config(**{field: value})

    @pytest.mark.parametrize("value", [2.5, True, "3", None])
    def test_seed_must_be_an_integer(self, value):
        # 2.5 and None would fail when training starts; True would train as seed 1
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            siamese_config(seed=value)

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
            base_config(seed=-3)
        assert base_config(seed=0).seed == 0 and base_config(seed=np.uint32(7)).seed == 7

    def test_numpy_integer_counts_accepted(self):
        cfg = base_config(epochs=np.int64(3), batch_size=np.int32(8))
        assert (cfg.epochs, cfg.batch_size) == (3, 8)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1])
    def test_learning_rate_must_be_finite_and_nonnegative(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            siamese_config(learning_rate=lr)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), 0.0, -1.0])
    def test_margin_must_be_finite_and_positive(self, margin):
        ps = generate_pairs(normed_synth(20, 3, 0.5, seed=17), 8, 4, 4, seed=18)
        with pytest.raises(ValueError, match="margin must be a finite positive number"):
            train_siamese(siamese_config(epochs=1), ps, margin=margin)

    def test_network_shapes(self):
        base = base_network_spec(15)
        assert [(l.in_size, l.out_size) for l in base.layers] == [(15, 256), (256, 256), (256, 1)]
        assert base.layers[-1].activation == "sigmoid"
        assert all(l.dropout_rate == 0.175 and l.activity_l2 == 0.01 for l in base.layers)
        siam = siamese_network_spec(15)
        assert [(l.in_size, l.out_size) for l in siam.layers] == [(15, 256), (256, 256), (256, 256)]
        assert all(l.activation == "relu" for l in siam.layers)
        assert [l.dropout_rate for l in siam.layers] == [0.2, 0.2, 0.0]


class TestEvalReport:
    def test_hand_counting_case(self):
        report = EvalReport.from_predictions([0, 1, 0], [0, 1, 1])
        assert report.confusion.tolist() == [[1, 1], [0, 1]]
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.precision[1] == 0.5
        assert report.recall[1] == 1.0

    def test_perfect_predictions(self):
        y = [0, 1, 1, 0, 1]
        report = EvalReport.from_predictions(y, y)
        assert report.confusion.tolist() == [[2, 0], [0, 3]]
        assert report.accuracy == 1.0
        assert report.precision == (1.0, 1.0)
        assert report.recall == (1.0, 1.0)

    def test_zero_denominator_yields_zero(self):
        report = EvalReport.from_predictions([0, 0], [0, 0])
        assert report.precision[1] == 0.0
        assert report.recall[1] == 0.0

    def test_totals_and_trace(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 2, 200)
        y_pred = rng.integers(0, 2, 200)
        report = EvalReport.from_predictions(y_true, y_pred)
        assert int(report.confusion.sum()) == 200
        assert report.accuracy == np.trace(report.confusion) / 200
        tn, fp, fn, tp = count_confusion(y_true, y_pred)
        assert report.confusion.tolist() == [[tn, fp], [fn, tp]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EvalReport.from_predictions([], [])


class TestHistoryExport:
    def test_round_trip_exact(self, tmp_path):
        history = History()
        rng = np.random.default_rng(1)
        for _ in range(10):
            history.append(*(float(v) for v in rng.normal(size=4)))
        path = tmp_path / "h.csv"
        export_history(history, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 11
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        back = load_history(path)
        assert back.train_loss == history.train_loss
        assert back.val_acc == history.val_acc

    def test_empty_history(self, tmp_path):
        path = tmp_path / "h.csv"
        export_history(History(), path)
        assert path.read_text() == "epoch,train_loss,train_acc,val_loss,val_acc\n"

    @pytest.mark.parametrize(
        "row,fault",
        [
            ("1,0.5", ""),
            ("1,0.5,x,nan,nan", ".*'x'"),
            ("x,0.5,1,1,1", ".*'x'"),
            ("2,1_1.23,1,1,1", ".*'1_1.23'"),  # float() reads 1_1.23 as 11.23
        ],
    )
    def test_malformed_row_is_a_one_line_error_naming_the_file(self, tmp_path, row, fault):
        path = tmp_path / "siamese_history.csv"
        path.write_text(f"epoch,train_loss,train_acc,val_loss,val_acc\n1,1,1,1,1\n\n{row}\n")
        with pytest.raises(ValueError) as err:
            load_history(path)
        assert re.match(f"{re.escape(str(path))}: malformed history row: {fault}", str(err.value))
        assert "\n" not in str(err.value)


class TestTrainBase:
    def test_zero_lr_params_never_move(self):
        data = normed_synth(120, 4, 0.3, seed=2)
        p1, _ = train_base(base_config(seed=3, epochs=1, learning_rate=0.0), data)
        p5, _ = train_base(base_config(seed=3, epochs=5, learning_rate=0.0), data)
        for a, b in zip(p1.arrays(), p5.arrays()):
            assert np.array_equal(a, b)

    def test_history_length_and_determinism(self):
        data = normed_synth(120, 4, 0.3, seed=4)
        cfg = base_config(seed=5, epochs=3)
        params_a, hist_a = train_base(cfg, data)
        params_b, hist_b = train_base(cfg, data)
        assert len(hist_a) == 3
        assert hist_a.train_loss == hist_b.train_loss
        assert hist_a.val_acc == hist_b.val_acc
        for a, b in zip(params_a.arrays(), params_b.arrays()):
            assert np.array_equal(a, b)

    def test_empty_data_rejected(self):
        empty = FeatureTable(np.empty((0, 3)), np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            train_base(base_config(), empty)

    def test_single_class_rejected(self):
        data = FeatureTable(np.random.default_rng(6).normal(size=(10, 3)), np.zeros(10, dtype=np.int64))
        with pytest.raises(ValueError, match="single class"):
            train_base(base_config(), data)

    def test_balanced_data_balanced_recalls(self):
        # with equal class weights on balanced separable data, the two
        # per-class recalls should come out close
        data = normed_synth(400, 6, 0.5, seed=7)
        params, _ = train_base(base_config(seed=8, epochs=40), data, class_weights=(1.0, 1.0))
        report = evaluate_classifier((base_network_spec(6), params), data)
        assert abs(report.recall[0] - report.recall[1]) < 0.1

    def test_non_finite_loss_stops_training(self):
        # a finite but absurd step size overflows the weights after the first
        # update; the loop must stop at the next batch, not run on in NaN
        data = normed_synth(120, 4, 0.3, seed=30)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=r"non-finite loss .* at epoch 1, batch 2$"):
                train_base(base_config(seed=31, epochs=3, learning_rate=1e300), data)

    def test_progress_stream(self, capsys):
        data = normed_synth(60, 3, 0.4, seed=9)
        train_base(base_config(seed=10, epochs=2), data, progress=print)
        out = capsys.readouterr().out
        assert "epoch 1/2" in out and "epoch 2/2" in out


def fit_base(progress=None, tiny=False, **overrides):
    # 2 rows per class: the validation split holds round(0.25 * 2) = 0 of each
    data = normed_synth(4, 3, 0.5, seed=37) if tiny else normed_synth(60, 3, 0.4, seed=37)
    _, hist = train_base(base_config(seed=38, **overrides), data, progress=progress)
    return hist, data.n


def fit_siamese(progress=None, tiny=False, **overrides):
    # 2 pairs: the training split keeps round(0.75 * 2) = 2 of them
    counts = (1, 1, 0) if tiny else (80, 40, 40)
    ps = generate_pairs(normed_synth(60, 3, 0.4, seed=39), *counts, seed=40)
    _, hist = train_siamese(siamese_config(seed=41, **overrides), ps, progress=progress)
    return hist, len(ps)


def count_batches(monkeypatch) -> list[int]:
    """Patch the loop's loss check to log the epoch of each batch."""
    batches = []
    check = train_mod._check_loss

    def counting_check(batch_loss, epoch, start, batch_size):
        batches.append(epoch)
        return check(batch_loss, epoch, start, batch_size)

    monkeypatch.setattr(train_mod, "_check_loss", counting_check)
    return batches


@pytest.mark.parametrize("fit", [fit_base, fit_siamese], ids=["base", "siamese"])
class TestSharedLoop:
    def test_trains_on_the_share_not_held_for_validation(self, fit, monkeypatch):
        # at batch 1 the loop checks one loss per training item
        batches = count_batches(monkeypatch)
        hist, n = fit(epochs=2, batch_size=1)
        n_train = round((1.0 - train_mod.VAL_FRACTION) * n)
        assert batches == [0] * n_train + [1] * n_train
        assert not any(np.isnan(v) for v in hist.val_loss + hist.val_acc)

    def test_empty_validation_split_trains_on_every_item(self, fit, monkeypatch):
        batches = count_batches(monkeypatch)
        hist, n = fit(tiny=True, epochs=2, batch_size=1)
        assert batches == [0] * n + [1] * n
        assert len(hist) == 2
        assert all(np.isnan(v) for v in hist.val_loss + hist.val_acc)

    def test_one_progress_line_per_epoch(self, fit, capsys):
        fit(progress=print, epochs=3)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ")[:2] for line in lines] == [
            ["epoch", f"{i}/3"] for i in (1, 2, 3)
        ]
        assert all(" val_loss=" in line and " val_acc=" in line for line in lines)


@pytest.mark.parametrize(
    "fit,used,unused",
    [(fit_base, "adam_step", "rmsprop_step"), (fit_siamese, "rmsprop_step", "adam_step")],
    ids=["base", "siamese"],
)
def test_each_trainer_steps_its_own_optimizer(fit, used, unused, monkeypatch):
    # patched by name in the train module, as the benchmark tracer does: the
    # trainers must look the step up when they run
    calls = {"adam_step": 0, "rmsprop_step": 0}
    for name in calls:

        def counting(*args, name=name, step=getattr(train_mod, name)):
            calls[name] += 1
            return step(*args)

        monkeypatch.setattr(train_mod, name, counting)
    _, n = fit(epochs=3, batch_size=7)
    n_train = round((1.0 - train_mod.VAL_FRACTION) * n)
    assert calls == {used: 3 * math.ceil(n_train / 7), unused: 0}


class TestTrainSiamese:
    def test_zero_lr_flat_curves(self):
        data = normed_synth(100, 4, 0.4, seed=11)
        ps = generate_pairs(data, 600, 300, 300, seed=12)
        cfg = siamese_config(seed=13, epochs=4, learning_rate=0.0)
        _, hist = train_siamese(cfg, ps)
        # params never move: validation series (dropout off) is bitwise flat
        assert all(v == hist.val_loss[0] for v in hist.val_loss)
        assert all(v == hist.val_acc[0] for v in hist.val_acc)
        # training series only wobbles through dropout masks
        assert np.allclose(hist.train_loss, hist.train_loss[0], rtol=0.25)

    def test_loss_drops_at_least_10x(self, synth_trained):
        hist = synth_trained.history
        assert hist.train_loss[-1] < hist.train_loss[0] / 10.0

    def test_determinism(self):
        data = normed_synth(100, 4, 0.4, seed=14)
        ps = generate_pairs(data, 400, 200, 200, seed=15)
        cfg = siamese_config(seed=16, epochs=2)
        model_a, hist_a = train_siamese(cfg, ps)
        model_b, hist_b = train_siamese(cfg, ps)
        assert hist_a.train_loss == hist_b.train_loss
        assert hist_a.val_loss == hist_b.val_loss
        for a, b in zip(model_a.params.arrays(), model_b.params.arrays()):
            assert np.array_equal(a, b)

    def test_non_finite_loss_stops_training(self):
        data = normed_synth(100, 4, 0.4, seed=32)
        ps = generate_pairs(data, 400, 200, 200, seed=33)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=r"non-finite loss .* at epoch 1, batch 2$"):
                train_siamese(siamese_config(seed=34, epochs=2, learning_rate=1e300), ps)

    def test_empty_pairs_rejected(self):
        data = normed_synth(20, 3, 0.5, seed=17)
        ps = generate_pairs(data, 0, 0, 0, seed=18)
        with pytest.raises(ValueError, match="empty"):
            train_siamese(siamese_config(), ps)

    def test_history_matches_epochs(self, synth_trained):
        assert len(synth_trained.history) == 6


class TestEvaluatePairs:
    def test_brute_force_agreement(self, synth_trained):
        model = synth_trained.model
        ps = generate_pairs(synth_trained.train, 150, 75, 75, seed=19)
        report = evaluate_pairs(model, ps)
        f = ps.source.features
        verdicts = [
            pair_forward(model, f[l : l + 1], f[r : r + 1])[0][0] < model.pair_threshold
            for l, r in zip(ps.left, ps.right)
        ]
        tn, fp, fn, tp = count_confusion(ps.similar.astype(int), [int(v) for v in verdicts])
        assert report.confusion.tolist() == [[tn, fp], [fn, tp]]
        assert int(report.confusion.sum()) == len(ps)

    def test_trivial_identical_pairs_all_similar(self, synth_trained):
        model = synth_trained.model
        ft = synth_trained.train
        import siamtab.pairs as pairs_mod

        idx = np.arange(10)
        ps = pairs_mod.PairSet(ft, idx, idx, np.ones(10, dtype=bool))
        report = evaluate_pairs(model, ps)
        assert report.confusion[1, 1] == 10  # every (a, a) verdict is similar

    def test_empty_rejected(self, synth_trained):
        ft = synth_trained.train
        import siamtab.pairs as pairs_mod

        empty = pairs_mod.PairSet(ft, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            evaluate_pairs(synth_trained.model, empty)


class TestPairDistances:
    @staticmethod
    def integer_model_and_table(rng, n=40, d=4):
        """Small-integer weights and features keep every product and sum
        exact in float64, so distances cannot depend on how BLAS blocks a
        batch (it rounds batches of a few rows differently from large ones)
        and array_equal checks the gathering alone."""
        spec = NetworkSpec((LayerSpec(d, 6, "relu"), LayerSpec(6, 3, "linear")))
        params = ParamSet(
            [rng.integers(-2, 3, (6, d)).astype(float), rng.integers(-2, 3, (3, 6)).astype(float)],
            [rng.integers(-2, 3, 6).astype(float), rng.integers(-2, 3, 3).astype(float)],
        )
        ft = FeatureTable(rng.integers(-3, 4, (n, d)).astype(float), rng.integers(0, 2, n))
        return SiameseModel(spec, params), ft

    def test_embed_once_matches_per_pair_forward(self, monkeypatch):
        # more distinct rows than one chunk, every row used by several pairs,
        # including self-pairs and both orders of the same pair
        rng = np.random.default_rng(35)
        model, ft = self.integer_model_and_table(rng)
        left = rng.integers(0, 30, 200)
        right = rng.integers(0, 30, 200)
        left[:3], right[:3] = [4, 9, 9], [4, 4, 9]
        ps = PairSet(ft, left, right, np.zeros(200, dtype=bool))
        monkeypatch.setattr(nn, "DIST_BLOCK_ROWS", 7)
        assert len(np.unique(np.concatenate((left, right)))) > 7
        got = train_mod._pair_distances(model, ps)
        expected = [
            pair_forward(model, ft.features[i : i + 1], ft.features[j : j + 1])[0][0]
            for i, j in zip(left, right)
        ]
        assert np.array_equal(got, expected)

    def test_embed_rows_gives_the_distinct_rows_and_their_slots(self):
        # repeats within and across arrays, and source rows no array names;
        # one, two (the pair members) and three (eval's test rows too) arrays
        rng = np.random.default_rng(38)
        spec = siamese_network_spec(4)
        model = SiameseModel(spec, init_params(spec, 43, train_mod.PAIR_DTYPE))
        features = rng.normal(size=(40, 4)).astype(train_mod.PAIR_DTYPE)
        indices = [rng.integers(5, 30, 60), rng.integers(10, 35, 60), rng.integers(0, 12, 9)]
        indices[0][:2], indices[1][:2] = [39, 5], [5, 39]
        for arrays in (1, 2, 3):
            vectors, slot = train_mod.embed_rows(model, features, *indices[:arrays])
            rows = np.unique(np.concatenate(indices[:arrays]))
            assert rows.size < 40
            want = model.embed(features[rows])
            assert vectors.dtype == want.dtype and vectors.shape == want.shape
            assert vectors.tobytes() == want.tobytes()
            want_slot = np.full(40, -1)
            want_slot[rows] = np.arange(rows.size)
            assert np.array_equal(slot, want_slot)
            for idx in indices[:arrays]:
                assert vectors[slot[idx]].tobytes() == model.embed(features[idx]).tobytes()

    def test_each_distinct_row_is_embedded_once(self, monkeypatch):
        model, ft = self.integer_model_and_table(np.random.default_rng(36))
        left, right = np.array([0, 0, 1, 2, 2]), np.array([1, 2, 3, 3, 0])
        ps = PairSet(ft, left, right, np.zeros(5, dtype=bool))
        embedded = []
        original = SiameseModel.embed

        def counting_embed(self, x, **kwargs):
            embedded.append(len(x))
            return original(self, x, **kwargs)

        monkeypatch.setattr(SiameseModel, "embed", counting_embed)
        train_mod._pair_distances(model, ps)
        assert embedded == [4]


    @pytest.mark.parametrize("chunk", [7, None])
    def test_blocked_distances_match_the_row_chunk_evaluator(self, monkeypatch, chunk):
        # float weights; 600 distinct rows embed in blocks, and 2500 pairs
        # are no multiple of either distance block size, and make at least
        # four blocks
        rng = np.random.default_rng(37)
        spec = siamese_network_spec(15)
        model = SiameseModel(spec, init_params(spec, 38))
        ft = FeatureTable(rng.normal(size=(600, 15)), rng.integers(0, 2, 600))
        left = np.concatenate((np.arange(600), rng.integers(0, 600, 1900)))
        right = rng.integers(0, 600, 2500)
        right[:2] = left[:2]
        ps = PairSet(ft, left, right, np.zeros(2500, dtype=bool))
        if chunk is not None:
            monkeypatch.setattr(nn, "DIST_BLOCK_ROWS", chunk)
        assert len(ps) % nn.DIST_BLOCK_ROWS != 0
        assert len(ps) // nn.DIST_BLOCK_ROWS >= 4
        want = pair_distances_row_chunks(model, ps)
        assert np.array_equal(train_mod._pair_distances(model, ps), want)

    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_distances_at_block_boundaries_match_the_row_chunk_evaluator(self, n):
        # one block up to nn.DIST_BLOCK_ROWS pairs, then two and three; the pairs
        # name more distinct rows than one embed block
        rng = np.random.default_rng(n)
        spec = siamese_network_spec(15)
        model = SiameseModel(spec, init_params(spec, 42))
        ft = FeatureTable(rng.normal(size=(400, 15)), rng.integers(0, 2, 400))
        ps = PairSet(ft, rng.integers(0, 400, n), rng.integers(0, 400, n),
                     np.zeros(n, dtype=bool))
        want = pair_distances_row_chunks(model, ps)
        assert np.array_equal(train_mod._pair_distances(model, ps), want)


class TestSharedEmbedding:
    def test_shared_embedding_gives_the_stand_alone_bits(self):
        # test rows no pair touches, pair rows outside the test split and
        # rows in both; every embed block holds at least 128 rows, so BLAS
        # rounds each row alike in the union and stand-alone forwards
        rng = np.random.default_rng(39)
        spec = siamese_network_spec(15)
        model = SiameseModel(spec, init_params(spec, 40))
        n = 700
        ft = FeatureTable(rng.normal(size=(n, 15)), rng.integers(0, 2, n))
        perm = rng.permutation(n)
        test_idx = perm[:300]
        left = np.concatenate((perm[100:], rng.choice(perm[100:], 300)))
        right = rng.choice(perm[100:], left.size)
        ps = PairSet(ft, left, right, rng.random(left.size) < 0.5)
        test_ft = take_rows(ft, test_idx)
        bank = ReferenceBank(rng.normal(size=(10, 15)), rng.normal(size=(10, 15)) + 0.5)

        vectors, slot = train_mod.embed_rows(model, ft.features, left, right, test_idx)
        assert len(vectors) == n
        assert not np.isin(perm[:100], np.concatenate((left, right))).any()
        assert np.isin(perm[100:300], left).all() and not np.isin(perm[300:], test_idx).any()

        got = train_mod._pair_distances(model, ps, (vectors, slot))
        assert np.array_equal(got, train_mod._pair_distances(model, ps))
        labels, d0, d1 = classify_table(model, bank, test_ft, (vectors, slot[test_idx]))
        want_labels, want0, want1 = classify_table(model, bank, test_ft)
        assert np.array_equal(d0, want0) and np.array_equal(d1, want1)
        assert np.array_equal(labels, want_labels)
        for with_shared, alone in (
            (evaluate_pairs(model, ps, (vectors, slot)), evaluate_pairs(model, ps)),
            (
                evaluate_classifier(model, test_ft, bank, (vectors, slot[test_idx])),
                evaluate_classifier(model, test_ft, bank),
            ),
        ):
            assert with_shared.record() == alone.record()

    @staticmethod
    def six_rows():
        spec = siamese_network_spec(4)
        model = SiameseModel(spec, init_params(spec, 41))
        ft = FeatureTable(np.arange(24.0).reshape(6, 4) / 10, np.array([0, 1] * 3))
        ps = PairSet(ft, np.array([0, 1]), np.array([2, 3]), np.ones(2, dtype=bool))
        return model, ft, ps

    def test_embedding_without_a_pair_member_rejected(self):
        # rows 4 and 5 embedded for the pairs (0, 2) and (1, 3): no member
        # has a vector, and none may be read from another row's
        model, ft, ps = self.six_rows()
        other = train_mod.embed_rows(model, ft.features, np.array([4]), np.array([5]))
        with pytest.raises(ValueError, match="holds no vector for some pair members"):
            evaluate_pairs(model, ps, other)
        # one member embedded, the other not
        partial = train_mod.embed_rows(model, ft.features, np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="holds no vector for some pair members"):
            evaluate_pairs(model, ps, partial)
        # slots that name rows past the vectors
        vectors, slot = train_mod.embed_rows(model, ft.features, ps.left, ps.right)
        with pytest.raises(ValueError, match="holds no vector for some pair members"):
            evaluate_pairs(model, ps, (vectors[:2], slot))

    def test_embedding_of_another_table_rejected(self):
        model, ft, ps = self.six_rows()
        vectors, slot = train_mod.embed_rows(model, ft.features, np.arange(6))
        with pytest.raises(ValueError, match="embedding slots for 3 rows, not 6"):
            evaluate_pairs(model, ps, (vectors, slot[:3]))
        bank = ReferenceBank(np.ones((1, 4)), np.zeros((1, 4)))
        with pytest.raises(ValueError, match="embedding positions for 3 rows, not 6"):
            evaluate_classifier(model, ft, bank, (vectors, slot[:3]))
        other = train_mod.embed_rows(model, ft.features, np.array([4]), np.array([5]))
        with pytest.raises(ValueError, match="embedding positions out of range for 2 rows"):
            evaluate_classifier(model, ft, bank, other)


class TestEvaluateClassifier:
    def test_siamese_path_needs_bank(self, synth_trained):
        with pytest.raises(ValueError, match="bank"):
            evaluate_classifier(synth_trained.model, synth_trained.test)

    def test_siamese_path(self, synth_trained):
        report = evaluate_classifier(synth_trained.model, synth_trained.test, synth_trained.bank)
        assert int(report.confusion.sum()) == synth_trained.test.n
        assert report.accuracy > 0.9

    def test_empty_rejected(self, synth_trained):
        empty = FeatureTable(np.empty((0, 10)), np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            evaluate_classifier(synth_trained.model, empty, synth_trained.bank)

    def test_base_eval_and_every_embed_bypass_forward(self, monkeypatch, synth_trained):
        spec = base_network_spec(10)
        params = init_params(spec, 42)
        test = synth_trained.test
        want = EvalReport.from_predictions(
            test.labels, (nn.forward(params, spec, test.features)[0][:, 0] >= 0.5).astype(int)
        )
        entered = []

        def spy(*args, **kwargs):
            entered.append(kwargs.get("mode", args[3] if len(args) > 3 else "infer"))
            return forward(*args, **kwargs)

        forward = nn.forward
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "siamtab" and getattr(module, "forward", None) is forward:
                monkeypatch.setattr(module, "forward", spy)
        assert evaluate_classifier((spec, params), test).record() == want.record()
        evaluate_classifier(synth_trained.model, test, synth_trained.bank)
        evaluate_pairs(synth_trained.model, synth_trained.pairs)
        synth_trained.model.embed(test.features[:3])
        assert entered == []
        pair_forward(synth_trained.model, test.features[:2], test.features[2:4])
        assert entered == ["infer"]  # the spy is in place


F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


class TestTrainerDtypes:
    """The pair model trains and evaluates in float32, the baseline in
    float64. Under NEP 50 (numpy 2) a numpy float64 scalar upcasts a float32
    array; under numpy 1.24 it does not. So each test takes one training
    step and one eval on the numpy it runs on, and reads the dtype of every
    array they make."""

    @staticmethod
    def record_step(monkeypatch, name, seen):
        """Patch the trainers' optimizer step `name` to record the dtypes of
        its parameters, gradients, moments and scratch buffers."""
        step = getattr(nn, name)

        def recording(params, grads, state, lr):
            result = step(params, grads, state, lr)  # the first adam_step makes state.m
            moments = [s.flat for s in (state.m, state.v) if s is not None]
            for array in (params.flat, grads.flat, *moments, *state.scratch):
                seen.append(array.dtype)
            return result

        monkeypatch.setattr(train_mod, name, recording)

    @staticmethod
    def record_traces(monkeypatch, module, traces):
        forward = module.forward

        def recording(*args, **kwargs):
            out, trace = forward(*args, **kwargs)
            traces.append((kwargs.get("mode"), out, trace))
            return out, trace

        monkeypatch.setattr(module, "forward", recording)

    @staticmethod
    def check_train_traces(traces, layers, dtype):
        trained = [(out, trace) for mode, out, trace in traces if mode == "train"]
        assert len(trained) == 1
        out, trace = trained[0]
        assert out.dtype == dtype
        for arrays in (trace.inputs, trace.masks, trace.outputs):
            assert len(arrays) == layers
            assert all(a is None or a.dtype == dtype for a in arrays)
        assert trace.masks[0] is not None
        assert type(trace.penalty) is float

    def test_one_siamese_step_and_eval(self, monkeypatch):
        ft = normed_synth(120, 6, 0.3, seed=61)
        ps = generate_pairs(ft, 40, 20, 20, seed=62)  # 60 training pairs: one batch
        steps, traces, grads = [], [], []
        self.record_step(monkeypatch, "rmsprop_step", steps)
        self.record_traces(monkeypatch, siamese_mod, traces)
        pair_backward = siamese_mod.pair_backward

        def recording_backward(model, pair_trace, dloss_dd):
            grads.append(pair_trace.grad.dtype)
            return pair_backward(model, pair_trace, dloss_dd)

        monkeypatch.setattr(train_mod, "pair_backward", recording_backward)
        model, history = train_siamese(siamese_config(seed=63, epochs=1), ps)
        assert model.params.flat.dtype == F32
        assert steps == [F32] * 5  # params, grads, v and two scratch buffers
        assert grads == [F32]
        self.check_train_traces(traces, 3, F32)
        assert all(type(v[0]) is float for v in vars(history).values())

        embedded = train_mod.embed_rows(model, ft.features, ps.left, ps.right, np.arange(ft.n))
        assert embedded[0].dtype == F32
        assert train_mod._pair_distances(model, ps, embedded).dtype == F32
        bank = siamese_mod.build_reference_bank(ft, 5, seed=64)
        _, d0, d1 = classify_table(model, bank, ft, embedded)
        assert d0.dtype == d1.dtype == F64  # nn.cross_distances computes in float64
        report = evaluate_pairs(model, ps, embedded)
        assert type(report.accuracy) is float

    def test_one_base_step_and_eval(self, monkeypatch):
        ft = normed_synth(20, 6, 0.3, seed=65)  # 15 training rows: one batch
        steps, traces = [], []
        self.record_step(monkeypatch, "adam_step", steps)
        self.record_traces(monkeypatch, train_mod, traces)
        params, history = train_base(base_config(seed=66, epochs=1), ft)
        assert params.flat.dtype == F64
        assert steps == [F64] * 6  # params, grads, m, v and two scratch buffers
        self.check_train_traces(traces, 3, F64)
        assert all(type(v[0]) is float for v in vars(history).values())

        spec = base_network_spec(ft.d)
        assert nn.infer(params, spec, ft.features).dtype == F64
        report = evaluate_classifier((spec, params), ft)
        assert type(report.accuracy) is float
