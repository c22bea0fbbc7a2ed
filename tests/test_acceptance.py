"""Acceptance suite: one test per release criterion, each printing a PASS or
FAIL line (run with -s to see them). Criteria 1-3 need the real Framingham
CSV and skip cleanly when it is absent; 4-8 run on synthetic data.

Set SIAMTAB_FULL_SCALE=1 to run criterion 3 at the full 160k/40k pair corpus
(tens of minutes) instead of the fast 16k/4k variant.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np

from conftest import framingham_path, needs_framingham
from oracles import (
    kink_free_input,
    max_rel_error,
    numeric_gradient,
    param_sum,
    random_small_spec,
)
from siamtab.cli import main as cli_main
from siamtab.data import (
    apply_norm,
    fit_norm,
    framingham_schema,
    impute,
    load_csv,
    stratified_split,
    synth_generate,
    to_features,
)
from siamtab.nn import (
    ParamSet,
    adam_step,
    backward,
    bce_loss,
    contrastive_loss,
    euclidean_distance,
    forward,
    init_optimizer,
    init_params,
    rmsprop_step,
)
from siamtab.pairs import generate_pairs, split_pairs
from siamtab.siamese import build_reference_bank, classify_table
from siamtab.train import (
    base_config,
    base_network_spec,
    evaluate_classifier,
    evaluate_pairs,
    siamese_config,
    train_base,
    train_siamese,
)

FULL_SCALE = os.environ.get("SIAMTAB_FULL_SCALE") == "1"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def load_framingham_features():
    raw = load_csv(framingham_path(), framingham_schema())
    ft = to_features(impute(raw))
    return raw, apply_norm(ft, fit_norm(ft))


# Table-documented per-column missing counts for the source dataset.
EXPECTED_MISSING = {
    "male": 0,
    "age": 0,
    "education": 105,
    "currentSmoker": 0,
    "cigsPerDay": 29,
    "BPMeds": 53,
    "prevalentStroke": 0,
    "prevalentHyp": 0,
    "diabetes": 0,
    "totChol": 50,
    "sysBP": 0,
    "diaBP": 0,
    "BMI": 19,
    "heartRate": 1,
    "glucose": 388,
    "TenYearCHD": 0,
}


@needs_framingham
def test_criterion_1_data_fidelity():
    with criterion(1, "dataset loads with exact shape and missing counts"):
        raw = load_csv(framingham_path(), framingham_schema())
        assert raw.n_rows == 4240
        assert raw.cells.shape[1] == 16
        assert raw.missing_counts() == EXPECTED_MISSING


@needs_framingham
def test_criterion_2_base_network_reproduction():
    with criterion(2, "baseline hits 0.70 +/- 0.05 accuracy with the class-1 precision collapse"):
        _, normed = load_framingham_features()
        trainval, test = stratified_split(normed, 0.2, seed=101)
        params, _ = train_base(base_config(seed=102), trainval)
        report = evaluate_classifier((base_network_spec(test.d), params), test)
        print(
            f"[acceptance] criterion 2 detail: acc={report.accuracy:.4f} "
            f"prec0={report.precision[0]:.4f} prec1={report.precision[1]:.4f}"
        )
        assert 0.65 <= report.accuracy <= 0.75
        assert report.precision[1] <= 0.45
        assert report.precision[0] >= 0.85


@needs_framingham
def test_criterion_3_siamese_reproduction():
    scale = "full 160k/40k" if FULL_SCALE else "fast-CI 16k/4k"
    with criterion(3, f"pair model reproduction at {scale} scale"):
        _, normed = load_framingham_features()
        if FULL_SCALE:
            counts, floor = (100_000, 50_000, 50_000), 0.99
        else:
            counts, floor = (10_000, 5_000, 5_000), 0.97
        ps = generate_pairs(normed, *counts, seed=103)
        train_ps, test_ps = split_pairs(ps, 0.8, seed=104)
        started = time.time()
        model, history = train_siamese(siamese_config(seed=105), train_ps)
        elapsed = time.time() - started
        report = evaluate_pairs(model, test_ps)
        print(
            f"[acceptance] criterion 3 detail: pair_acc={report.accuracy:.4f} "
            f"final_train_loss={history.train_loss[-1]:.5f} time={elapsed:.0f}s"
        )
        assert report.accuracy >= floor
        if FULL_SCALE:
            assert history.train_loss[-1] <= 0.01
        else:
            assert elapsed < 180.0


def test_criterion_4_gradient_oracle():
    with criterion(4, "20 random small networks match finite differences under both heads"):
        for trial in range(10):
            rng = np.random.default_rng(1000 + trial)
            spec = random_small_spec(rng, "bce")
            params = init_params(spec, seed=2000 + trial)
            x = kink_free_input(rng, spec, params, 3)
            y = rng.integers(0, 2, 3).astype(np.float64)
            weights = (1.0, 5.0) if trial % 2 else (1.0, 1.0)

            def loss():
                out, trace = forward(params, spec, x)
                losses, _ = bce_loss(out[:, 0], y, weights)
                return float(losses.mean()) + trace.penalty

            out, trace = forward(params, spec, x)
            _, dldp = bce_loss(out[:, 0], y, weights)
            analytic, _ = backward(trace, params, spec, (dldp / 3)[:, None])
            assert max_rel_error(analytic, numeric_gradient(loss, params)) < 1e-4

        for trial in range(10):
            rng = np.random.default_rng(3000 + trial)
            spec = random_small_spec(rng, "contrastive")
            params = init_params(spec, seed=4000 + trial)
            a = kink_free_input(rng, spec, params, 1)
            b = kink_free_input(rng, spec, params, 1)
            ea, _ = forward(params, spec, a)
            eb, _ = forward(params, spec, b)
            d0, _, _ = euclidean_distance(ea, eb)
            similar = np.array([True if abs(d0[0] - 1.0) < 1e-2 else bool(rng.integers(2))])

            def loss():
                ea, ta = forward(params, spec, a)
                eb, tb = forward(params, spec, b)
                d, _, _ = euclidean_distance(ea, eb)
                l, _ = contrastive_loss(d, similar, 1.0)
                return float(l[0]) + ta.penalty + tb.penalty

            _, ta = forward(params, spec, a)
            _, tb = forward(params, spec, b)
            d, g1, g2 = euclidean_distance(ta.outputs[-1], tb.outputs[-1])
            _, dldd = contrastive_loss(d, similar, 1.0)
            ga, _ = backward(ta, params, spec, dldd[:, None] * g1)
            gb, _ = backward(tb, params, spec, dldd[:, None] * g2)
            analytic = param_sum(ga, gb)
            assert max_rel_error(analytic, numeric_gradient(loss, params)) < 1e-4


def test_criterion_5_loss_and_optimizer_unit_oracles():
    with criterion(5, "loss and optimizer scalar cases match hand arithmetic to 1e-9"):
        loss, grad = contrastive_loss(np.array([0.6]), np.array([False]), 1.0)
        assert abs(loss[0] - 0.16) < 1e-9 and abs(grad[0] + 0.8) < 1e-9
        loss, _ = contrastive_loss(np.array([0.0]), np.array([True]), 1.0)
        assert abs(loss[0]) < 1e-9
        loss, _ = contrastive_loss(np.array([1.2]), np.array([False]), 1.0)
        assert abs(loss[0]) < 1e-9

        loss, _ = bce_loss(0.5, 1.0, (1.0, 5.0))
        assert abs(loss - 5.0 * math.log(2.0)) < 1e-9
        loss, _ = bce_loss(0.5, 0.0, (1.0, 5.0))
        assert abs(loss - math.log(2.0)) < 1e-9

        params = ParamSet([np.array([[0.0]])], [np.array([0.0])])
        grads = ParamSet([np.array([[1.0]])], [np.array([0.0])])
        adam_step(params, grads, init_optimizer(params), lr=0.001)
        m_hat = (1 - 0.9) / (1 - 0.9)
        v_hat = (1 - 0.999) / (1 - 0.999)
        expected = -0.001 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(params.weights[0][0, 0] - expected) < 1e-9

        params = ParamSet([np.array([[0.0]])], [np.array([0.0])])
        rmsprop_step(params, grads, init_optimizer(params), lr=0.001)
        expected = -0.001 / (math.sqrt((1 - 0.9) * 1.0) + 1e-8)
        assert abs(params.weights[0][0, 0] - expected) < 1e-9


def test_criterion_6_pair_corpus_invariants():
    with criterion(6, "200k pair corpus: exact counts, verified flags, no self-pairs, exact 80-20"):
        ft = synth_generate(4240, 15, 644 / 4240, seed=106)
        assert int(ft.labels.sum()) == 644
        ps = generate_pairs(ft, 100_000, 50_000, 50_000, seed=107)
        assert len(ps) == 200_000
        assert ps.counts == (100_000, 50_000, 50_000)
        assert np.array_equal(ps.similar, ft.labels[ps.left] == ft.labels[ps.right])
        assert not np.any(ps.similar & (ps.left == ps.right))
        assert np.all(ps.left[ps.similar] != ps.right[ps.similar])
        train_ps, test_ps = split_pairs(ps, 0.8, seed=108)
        assert len(train_ps) == 160_000
        assert len(test_ps) == 40_000


def _pipeline(out, seed):
    argvs = [
        ["prepare", "--synthetic", "400,10,0.2", "--out", str(out), "--seed", str(seed)],
        ["pairs", "--out", str(out), "--seed", str(seed), "--pairs-diff", "3000",
         "--pairs-same0", "1500", "--pairs-same1", "1500"],
        ["train", "siamese", "--out", str(out), "--seed", str(seed), "--epochs", "3"],
        ["eval", "siamese", "--out", str(out), "--seed", str(seed)],
    ]
    for argv in argvs:
        assert cli_main(argv) == 0


def test_criterion_7_end_to_end_determinism(tmp_path, capsys):
    with criterion(7, "same-seed end-to-end runs write byte-identical histories and reports"):
        a, b = tmp_path / "a", tmp_path / "b"
        _pipeline(a, seed=42)
        _pipeline(b, seed=42)
        capsys.readouterr()
        for name in ("siamese_history.csv", "eval_siamese.txt", "eval_siamese.kv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_criterion_8_synthetic_separation():
    with criterion(8, "pair model beats the unweighted baseline on class-1 recall, accuracy > 0.95"):
        ft = synth_generate(2000, 15, 0.15, seed=81)
        normed = apply_norm(ft, fit_norm(ft))
        train_ft, test_ft = stratified_split(normed, 0.25, seed=82)

        ps = generate_pairs(train_ft, 12_000, 6_000, 6_000, seed=83)
        model, _ = train_siamese(siamese_config(seed=84), ps)
        bank = build_reference_bank(train_ft, 10, seed=85)
        preds, _, _ = classify_table(model, bank, test_ft)
        siam_acc = float((preds == test_ft.labels).mean())
        siam_recall1 = float((preds[test_ft.labels == 1] == 1).mean())

        params, _ = train_base(base_config(seed=86), train_ft, class_weights=(1.0, 1.0))
        base_report = evaluate_classifier((base_network_spec(test_ft.d), params), test_ft)
        print(
            f"[acceptance] criterion 8 detail: siam_acc={siam_acc:.4f} "
            f"siam_recall1={siam_recall1:.4f} base_recall1={base_report.recall[1]:.4f}"
        )
        assert siam_acc > 0.95
        assert siam_recall1 >= base_report.recall[1]
