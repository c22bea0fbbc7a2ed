import argparse
import json
import shutil
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from siamtab import cli, nn, siamese, train
from siamtab.cli import main, read_config_file, stage_seed
from siamtab.siamese import SiameseModel


def run(*argv):
    return main([str(a) for a in argv])


def pipeline(out, seed=3, extra_prepare=(), pairs=(400, 200, 200)):
    assert run("prepare", "--synthetic", "300,6,0.2", "--out", out, "--seed", seed, *extra_prepare) == 0
    assert run(
        "pairs", "--out", out, "--seed", seed,
        "--pairs-diff", pairs[0], "--pairs-same0", pairs[1], "--pairs-same1", pairs[2],
    ) == 0
    assert run("train", "siamese", "--out", out, "--seed", seed, "--epochs", 2) == 0
    assert run("eval", "siamese", "--out", out, "--seed", seed) == 0


class TestPrepare:
    def test_synthetic_artifacts_and_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "200,5,0.25", "--out", out, "--seed", 1) == 0
        for name in ("schema.csv", "normalized.csv", "norm_stats.csv", "splits.csv", "report.txt"):
            assert (out / name).exists()
        text = capsys.readouterr().out
        assert "rows: 200" in text
        assert "f00: 0" in text  # synthetic data has no missing cells
        report = (out / "report.txt").read_text()
        assert "class 1: 50" in report
        assert "test rows: 40" in report

    def test_rerun_identical_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 9) == 0
        for name in ("normalized.csv", "normalized.npz", "splits.csv", "report.txt", "norm_stats.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_normalized_table_is_standardized(self, tmp_path):
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "200,4,0.3", "--out", out, "--seed", 2) == 0
        rows = (out / "normalized.csv").read_text().splitlines()[1:]
        cells = np.array([[float(v) for v in r.split(",")[:-1]] for r in rows])
        assert np.all(np.abs(cells.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(cells.std(axis=0) - 1.0) < 1e-6)

    def test_needs_data_or_synthetic(self, tmp_path, capsys):
        assert run("prepare", "--out", tmp_path / "x") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["flags", "config file"])
    def test_data_and_synthetic_together_are_refused(self, tmp_path, capsys, form):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={tmp_path / 'input.csv'}\n")
        data = ["--data", tmp_path / "input.csv"] if form == "flags" else ["--config", cfg]
        out = tmp_path / "run"
        assert run("prepare", *data, "--synthetic", "100,3,0.2", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: prepare takes --data or --synthetic, not both"]
        assert not out.exists()

    def test_csv_input(self, tmp_path):
        from siamtab.data import save_table_csv, synth_generate

        csv_path = tmp_path / "input.csv"
        save_table_csv(synth_generate(80, 3, 0.4, seed=4), csv_path)
        # synthetic csv does not match the 16-column disease schema
        assert run("prepare", "--data", csv_path, "--out", tmp_path / "run") == 1

    def test_effective_config_printed(self, tmp_path, capsys):
        run("prepare", "--synthetic", "100,3,0.5", "--out", tmp_path / "r", "--seed", 11)
        text = capsys.readouterr().out
        assert "effective config:" in text
        assert "seed=11" in text
        assert "synthetic=100,3,0.5" in text


class TestPairsCmd:
    def test_requires_prepare(self, tmp_path, capsys):
        assert run("pairs", "--out", tmp_path / "missing") == 1
        assert "run the earlier stages first" in capsys.readouterr().err

    def test_default_and_override_counts(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "100,4,0.4", "--out", out, "--seed", 5)
        assert run("pairs", "--out", out, "--seed", 5, "--pairs-diff", 10, "--pairs-same0", 5, "--pairs-same1", 5) == 0
        assert "pairs: 20 total" in capsys.readouterr().out
        train_lines = (out / "pairs_train.csv").read_text().splitlines()
        test_lines = (out / "pairs_test.csv").read_text().splitlines()
        assert len(train_lines) - 1 == 16
        assert len(test_lines) - 1 == 4

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("prepare", "--synthetic", "100,4,0.4", "--out", out, "--seed", 6)
            run("pairs", "--out", out, "--seed", 6, "--pairs-diff", 50, "--pairs-same0", 20, "--pairs-same1", 20)
        assert (a / "pairs_train.csv").read_bytes() == (b / "pairs_train.csv").read_bytes()
        assert (a / "pairs_test.csv").read_bytes() == (b / "pairs_test.csv").read_bytes()


class TestTrainCmd:
    def test_base_training_artifacts(self, tmp_path):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 7)
        assert run("train", "base", "--out", out, "--seed", 7, "--epochs", 2) == 0
        assert (out / "base_model.npz").exists()
        history = (out / "base_history.csv").read_text().splitlines()
        assert len(history) == 3  # header + 2 epochs

    def test_epoch_override_rejected_when_invalid(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 7)
        assert run("train", "base", "--out", out, "--epochs", 0) == 1
        assert "epochs" in capsys.readouterr().err

    def test_nan_learning_rate_fails_before_any_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 7)
        run("pairs", "--out", out, "--seed", 7, "--pairs-diff", 40, "--pairs-same0", 20, "--pairs-same1", 20)
        capsys.readouterr()
        assert run("train", "siamese", "--out", out, "--seed", 7, "--lr", "nan") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "learning_rate" in err[0]
        assert not (out / "siamese_model.npz").exists()
        assert not (out / "siamese_history.csv").exists()

    @pytest.mark.parametrize("k", [50, 0])
    def test_bad_k_refs_fails_before_training(self, tmp_path, capsys, k):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "400,15,0.05", "--out", out, "--seed", 7)
        run("pairs", "--out", out, "--seed", 7, "--pairs-diff", 40, "--pairs-same0", 20, "--pairs-same1", 20)
        capsys.readouterr()
        assert run("train", "siamese", "--out", out, "--seed", 7, "--epochs", 3, "--k-refs", k) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not [line for line in captured.out.splitlines() if line.startswith("epoch ")]
        assert not (out / "siamese_model.npz").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda i, part: (i, "tset"), "part must be 'train' or 'test', got 'tset'"),
            (lambda i, part: ("150", part), "index 150 out of range for a table of 150 rows"),
            (lambda i, part: ("-1", part), "index -1 out of range for a table of 150 rows"),
        ],
    )
    def test_malformed_split_row_rejected(self, tmp_path, capsys, edit, message):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 7)
        lines = (out / "splits.csv").read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.endswith(",train"))
        lines[k] = ",".join(edit(*lines[k].split(",")))
        (out / "splits.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("train", "base", "--out", out, "--epochs", 1) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {out / 'splits.csv'}: line {k + 1}: {message}"]
        assert not (out / "base_model.npz").exists()

    def test_siamese_needs_pairs(self, tmp_path):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 7)
        assert run("train", "siamese", "--out", out) == 1

    def test_siamese_on_an_empty_pair_file_names_it(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 7)
        assert run(
            "pairs", "--out", out, "--seed", 7, "--pairs-diff", 0, "--pairs-same0", 0, "--pairs-same1", 0
        ) == 0
        capsys.readouterr()
        assert run("train", "siamese", "--out", out, "--seed", 7) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / 'pairs_train.csv'} holds no pairs; re-run siamtab pairs with larger counts"
        ]
        assert not (out / "siamese_model.npz").exists()


def read_splits(path, n):
    """(train, test) index lists of a splits file for a table of n rows, or
    the message the reader raises, without the path."""
    try:
        train, test = cli._load_split_indices(SimpleNamespace(out=path.parent), n)
    except ValueError as exc:
        return str(exc).removeprefix(f"{path}: ")
    assert train.dtype == np.int64 and test.dtype == np.int64
    return train.tolist(), test.tolist()


def part_fault(line, cell):
    return f"line {line}: part must be 'train' or 'test', got {cell!r}"


# Each body follows the header "index,part"; read for a table of 2 rows.
SPLIT_BODIES = {
    "0,test\n1,train\n": ([1], [0]),
    "0,test\n1,trainx\n": part_fault(3, "trainx"),  # a 5-wide read would cut it to 'train'
    "0,test\n1,trainxy\n": part_fault(3, "trainxy"),  # named as the file spells it
    "0,test\n1,tset\n": part_fault(3, "tset"),
    "0,test\n1, train\n": part_fault(3, " train"),
    "0,test\n1,train \n": part_fault(3, "train "),
    "0,test\n+1,train\n": ([1], [0]),
    "0,test\n 1,test\n": ([], [0, 1]),
    "0,test\n1.0,train\n": "line 3: malformed splits row: non-integer value '1.0' in column 'index'",
    "0,test\n1_0,train\n": "line 3: malformed splits row: non-integer value '1_0' in column 'index'",
    "0,test\n1\n2,train\n": "line 3: malformed splits row: expected 2 cells per row, got 1",
    "0,test\n1,train,0\n": "line 3: malformed splits row: expected 2 cells per row, got 3",
    # an empty line is no row, so the row after it is line 4
    "0,test\n\n2,train\n": "line 4: index 2 out of range for a table of 2 rows",
    "0,test\n   \n": "line 3: malformed splits row: expected 2 cells per row, got 1",
    "0,test\n1,train": ([1], [0]),
    "0,test\n\n": "no row for index 1; the file must list each of the 2 table rows once",
    # the first bad row in file order is reported, a range fault or a part
    "7,test\n1,tset\n": "line 2: index 7 out of range for a table of 2 rows",
    "0,tset\n7,test\n": part_fault(2, "tset"),
    "7,tset\n": part_fault(2, "tset"),  # on one row the part is checked first
    "": "no row for index 0; the file must list each of the 2 table rows once",
}


class TestSplitsFile:
    def test_prepared_file_takes_one_parse(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 7) == 0
        parts = [line.split(",")[1] for line in (out / "splits.csv").read_text().splitlines()[1:]]
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
        train, test = read_splits(out / "splits.csv", 150)
        assert len(calls) == 1
        assert train == [i for i, part in enumerate(parts) if part == "train"]
        assert test == [i for i, part in enumerate(parts) if part == "test"]
        assert len(test) == 30

    @pytest.mark.parametrize("body", list(SPLIT_BODIES))
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_same_rows_or_message_as_the_row_reader(self, tmp_path, body, newline):
        """The rows or message of each body, under either line end."""
        path = tmp_path / "splits.csv"
        path.write_bytes(("index,part\n" + body).replace("\n", newline).encode())
        assert read_splits(path, 2) == SPLIT_BODIES[body]

    @pytest.mark.parametrize(
        "row,message",
        [
            # int() reads the digit separator, as index 10
            ("1_0,{part}", "line 3: malformed splits row: non-integer value '1_0' in column 'index'"),
            ("0,{part}", "line 3: index 0 is already listed on line 2"),
            (None, "no row for index 1; the file must list each of the 150 table rows once"),
        ],
    )
    def test_split_must_list_each_table_row_once(self, tmp_path, capsys, row, message):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 7)
        run("train", "base", "--out", out, "--seed", 7, "--epochs", 1)
        lines = (out / "splits.csv").read_text().splitlines()
        if row is None:
            del lines[2]  # the row of index 1
        else:
            lines[2] = row.format(part=lines[2].split(",")[1])
        (out / "splits.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("eval", "base", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {out / 'splits.csv'}: {message}"]
        assert not (out / "eval_base.txt").exists()


def edit_meta(path, edit):
    """Rewrite a checkpoint with edit(meta) applied to its meta JSON."""
    with np.load(path) as data:
        stored = dict(data)
    meta = json.loads(str(stored["meta"]))
    edit(meta)
    stored["meta"] = np.array(json.dumps(meta))
    np.savez(path, **stored)


def edit_cell(path, line, column, value):
    """Rewrite one cell of a CSV file in place; the header is line 1."""
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A run directory through `eval siamese`; tests work on a copy of it."""
    out = tmp_path_factory.mktemp("trained") / "run"
    pipeline(out, seed=23)
    return out


def copy_run(trained_run, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    (out / "eval_siamese.txt").unlink()
    return out


class TestEvalCmd:
    @pytest.mark.parametrize(
        "damage,fault",
        [
            (lambda path: path.write_bytes(path.read_bytes()[:-100]),
             "BadZipFile: File is not a zip file"),
            (lambda path: np.save(path.with_suffix(".npy"), np.zeros(3))
             or path.with_suffix(".npy").rename(path), "BadZipFile: File is not a zip file"),
            (lambda path: edit_meta(path, lambda meta: meta.pop("layers")), "KeyError: 'layers'"),
        ],
        ids=["truncated", "an npy file", "meta without layers"],
    )
    def test_unreadable_checkpoint_fails_with_one_error_line(
        self, trained_run, tmp_path, capsys, damage, fault
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        damage(path)
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: not a readable checkpoint ({fault})"]
        assert not (out / "eval_siamese.txt").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda meta: meta["layers"][0].update(activation="tanh"),
             "unknown activation 'tanh'"),
            (lambda meta: meta["layers"][1].update(in_size=255),
             "layer chain mismatch: 256 -> 255"),
            (lambda meta: meta.update(layers=[]), "network needs at least one layer"),
        ],
        ids=["unknown activation", "broken layer chain", "no layers"],
    )
    def test_checkpoint_layer_spec_the_engine_refuses_names_the_file(
        self, trained_run, tmp_path, capsys, edit, message
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        edit_meta(path, edit)
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
        assert not (out / "eval_siamese.txt").exists()

    @pytest.mark.parametrize("which", ["base", "siamese"])
    def test_checkpoint_for_a_table_of_another_width_names_it_and_the_stage(
        self, trained_run, tmp_path, capsys, which
    ):
        # trained on 6 feature columns, then the table is prepared again
        # with 5; for the pair model the check comes before the test pairs'
        # similarity flags are checked against the new table's labels
        out = copy_run(trained_run, tmp_path)
        if which == "base":
            assert run("train", "base", "--out", out, "--seed", 23, "--epochs", 1) == 0
        assert run("prepare", "--synthetic", "300,5,0.2", "--out", out, "--seed", 23) == 0
        capsys.readouterr()
        assert run("eval", which, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / f'{which}_model.npz'}: network takes 6 inputs, the table has 5 "
            f"feature columns; re-run siamtab train {which}"
        ]
        assert not (out / f"eval_{which}.txt").exists()

    @pytest.mark.parametrize(
        "name,convert,message",
        [
            ("b1", lambda b: b + 1j, "array b1 has dtype complex128, expected float64"),
            ("refs0", lambda r: r.astype(object),
             "not a readable checkpoint "
             "(ValueError: Object arrays cannot be loaded when allow_pickle=False)"),
        ],
        ids=["complex bias", "pickled reference bank"],
    )
    def test_checkpoint_array_of_another_dtype_fails_with_one_error_line(
        self, trained_run, tmp_path, capsys, name, convert, message
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        with np.load(path) as data:
            stored = dict(data)
        stored[name] = convert(stored[name])
        np.savez(path, **stored)
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: {message}"]
        assert not (out / "eval_siamese.txt").exists()

    @pytest.mark.parametrize("entry", ["seed", "margin", "pair_threshold"])
    @pytest.mark.parametrize("value", ["1.0", float("nan"), True])
    def test_checkpoint_extra_that_is_not_a_finite_number_rejected(
        self, trained_run, tmp_path, capsys, entry, value
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        edit_meta(path, lambda meta: meta["extra"].update({entry: value}))
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {path}: checkpoint extra entry {entry!r} is not a finite number: {value!r}"
        ]
        assert not (out / "eval_siamese.txt").exists()

    @pytest.mark.parametrize(
        "entry,value", [("margin", -1.0), ("margin", 0.0), ("pair_threshold", -1.0)]
    )
    def test_checkpoint_margin_or_threshold_that_is_not_positive_names_the_file(
        self, trained_run, tmp_path, capsys, entry, value
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        edit_meta(path, lambda meta: meta["extra"].update({entry: value}))
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: checkpoint extra entry {entry!r} is not positive: {value!r}"]
        assert not (out / "eval_siamese.txt").exists()

    @pytest.mark.parametrize("flag,name", [("--threshold", "threshold"), ("--margin", "margin")])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    @pytest.mark.parametrize("stage", ["train", "eval"])
    def test_margin_or_threshold_that_is_not_finite_and_positive_fails_first(
        self, trained_run, tmp_path, capsys, flag, name, value, stage
    ):
        out = copy_run(trained_run, tmp_path)
        model = out / "siamese_model.npz"
        if stage == "train":
            model.unlink()
        capsys.readouterr()
        assert run(stage, "siamese", "--out", out, flag, value) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {name} must be a finite positive number, got {float(value)}"
        ]
        assert not [line for line in captured.out.splitlines() if line.startswith("epoch ")]
        assert not (out / "eval_siamese.txt").exists()
        assert model.exists() == (stage == "eval")

    def test_siamese_on_an_empty_pair_file_names_it(self, trained_run, tmp_path, capsys):
        out = copy_run(trained_run, tmp_path)
        assert run(
            "pairs", "--out", out, "--seed", 23, "--pairs-diff", 1, "--pairs-same0", 0, "--pairs-same1", 0
        ) == 0
        assert "-> train=1, test=0" in capsys.readouterr().out
        assert run("eval", "siamese", "--out", out, "--seed", 23) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / 'pairs_test.csv'} holds no pairs; re-run siamtab pairs with larger counts"
        ]
        assert not (out / "eval_siamese.txt").exists()

    def test_eval_before_train_fails(self, tmp_path):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "120,4,0.3", "--out", out, "--seed", 8)
        assert run("eval", "base", "--out", out) == 1

    def test_full_siamese_pipeline_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        pipeline(out, seed=12)
        text = (out / "eval_siamese.txt").read_text()
        assert "pair-level" in text and "sample-level" in text
        kv = dict(
            line.split("=", 1) for line in (out / "eval_siamese.kv").read_text().splitlines()
        )
        assert "pair_accuracy" in kv and "sample_accuracy" in kv
        assert kv["seed"] == "12"
        assert int(kv["pair_tn"]) + int(kv["pair_fp"]) + int(kv["pair_fn"]) + int(kv["pair_tp"]) == 160

    def test_eval_idempotent(self, tmp_path):
        out = tmp_path / "run"
        pipeline(out, seed=13)
        first = (out / "eval_siamese.txt").read_bytes()
        assert run("eval", "siamese", "--out", out, "--seed", 13) == 0
        assert (out / "eval_siamese.txt").read_bytes() == first

    def test_held_out_rows_are_embedded_once(self, trained_run, tmp_path, monkeypatch):
        # one embed of the union of test-pair and test-split rows, then one
        # per reference bank; the reports keep their bytes
        out = copy_run(trained_run, tmp_path)
        embedded = []
        original = SiameseModel.embed

        def counting_embed(self, x):
            embedded.append(len(x))
            return original(self, x)

        monkeypatch.setattr(SiameseModel, "embed", counting_embed)
        assert run("eval", "siamese", "--out", out) == 0
        pairs = np.loadtxt(out / "pairs_test.csv", delimiter=",", skiprows=1, dtype=np.int64)
        splits = np.loadtxt(out / "splits.csv", delimiter=",", skiprows=1, dtype=str)
        test_rows = splits[splits[:, 1] == "test", 0].astype(np.int64)
        union = np.union1d(pairs[:, :2], test_rows)
        assert np.setdiff1d(test_rows, pairs[:, :2]).size > 0
        assert test_rows.size < union.size < 300
        assert embedded == [union.size, 10, 10]
        for name in ("eval_siamese.txt", "eval_siamese.kv"):
            assert (out / name).read_bytes() == (trained_run / name).read_bytes(), name

    def test_checkpoint_of_the_wrong_kind_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 16)
        run("pairs", "--out", out, "--seed", 16, "--pairs-diff", 40, "--pairs-same0", 20, "--pairs-same1", 20)
        run("train", "base", "--out", out, "--seed", 16, "--epochs", 1)
        shutil.copy(out / "base_model.npz", out / "siamese_model.npz")
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "kind is 'base', expected 'siamese'" in err[0]
        assert not (out / "eval_siamese.txt").exists()

    def test_checkpoint_shape_mismatch_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        pipeline(out, seed=17)
        path = out / "siamese_model.npz"
        with np.load(path) as data:
            stored = dict(data)
        stored["w1"] = stored["w1"][:-1]
        np.savez(path, **stored)
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "w1 has shape (255, 256)" in err[0]

    @pytest.mark.parametrize(
        "row,match",
        [
            ("1,2", "malformed pair row"),
            ("1,99999,0", "index out of range"),
            ("-1,2,0", "index out of range"),
            ("1,2,7", "malformed pair row: similar must be 0 or 1, got 7"),
        ],
    )
    def test_malformed_pair_row_fails_with_one_error_line(self, tmp_path, capsys, row, match):
        out = tmp_path / "run"
        pipeline(out, seed=18)
        with open(out / "pairs_test.csv", "a") as fh:
            fh.write(row + "\n")
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {out / 'pairs_test.csv'}: ")
        assert match in err[0]

    @pytest.mark.parametrize(
        "row,match",
        [
            ("1.0,2.0", "malformed table row: expected 7 cells per row, got 2"),
            ("0,0,0,0,0,x,1", "malformed table row: non-numeric value 'x' in column 'f05'"),
            ("0,0,0,inf,0,0,1", "non-finite value inf in column 'f03'"),
            ("0,0,0,0,0,0,3", "label must be 0 or 1, got 3.0"),
        ],
    )
    def test_malformed_table_row_fails_with_one_error_line(self, tmp_path, capsys, row, match):
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "120,6,0.3", "--out", out, "--seed", 8) == 0
        with open(out / "normalized.csv", "a") as fh:
            fh.write(row + "\n")
        capsys.readouterr()
        assert run("train", "base", "--out", out, "--epochs", 1) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {out / 'normalized.csv'}: line 122: {match}"]

    @pytest.mark.parametrize(
        "line,value,message",
        [
            (5, "x", "line 5: malformed table row: non-numeric value 'x' in column 'f02'"),
            (5, "inf", "line 5: non-finite value inf in column 'f02'"),
            (1, "g02", "not a table file: expected header ['f00', 'f01', 'f02', 'f03', 'f04', "
             "'f05', 'label'], got ['f00', 'f01', 'g02', 'f03', 'f04', 'f05', 'label']"),
        ],
    )
    def test_table_edited_after_prepare_fails_as_without_its_sidecar(
        self, tmp_path, capsys, line, value, message
    ):
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "120,6,0.3", "--out", out, "--seed", 8) == 0
        edit_cell(out / "normalized.csv", line, 2, value)
        capsys.readouterr()
        assert run("train", "base", "--out", out, "--epochs", 1) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {out / 'normalized.csv'}: {message}"]

    def test_cell_edited_after_prepare_is_read_from_the_csv(self, tmp_path):
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "120,6,0.3", "--out", out, "--seed", 8) == 0
        edit_cell(out / "normalized.csv", 5, 2, "0.5")
        assert cli._load_prepared(SimpleNamespace(out=out)).features[3, 2] == 0.5

    def test_run_without_the_table_sidecar_writes_the_same_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("prepare", "--synthetic", "300,6,0.2", "--out", a, "--seed", 21) == 0
        shutil.copytree(a, b)
        (b / "normalized.npz").unlink()
        stdout = {}
        for out in (a, b):
            capsys.readouterr()
            assert run("pairs", "--out", out, "--seed", 21, "--pairs-diff", 400,
                       "--pairs-same0", 200, "--pairs-same1", 200) == 0
            assert run("train", "siamese", "--out", out, "--seed", 21, "--epochs", 1) == 0
            assert run("eval", "siamese", "--out", out, "--seed", 21) == 0
            stdout[out] = capsys.readouterr().out.replace(str(out), "<out>")
        assert stdout[a] == stdout[b]
        names = sorted(p.name for p in b.iterdir())
        assert "normalized.npz" not in names  # a reader never writes the sidecar
        assert sorted(p.name for p in a.iterdir()) == sorted(names + ["normalized.npz"])
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize(
        "which,entry",
        [
            ("siamese", "refs0"),
            ("siamese", "refs1"),
            ("siamese", "margin"),
            ("siamese", "pair_threshold"),
            ("siamese", "seed"),
            ("base", "seed"),
        ],
    )
    def test_checkpoint_without_an_entry_eval_reads_rejected(self, tmp_path, capsys, which, entry):
        out = tmp_path / "run"
        pipeline(out, seed=19)
        assert run("train", "base", "--out", out, "--seed", 19, "--epochs", 1) == 0
        path = out / f"{which}_model.npz"
        with np.load(path) as data:
            stored = dict(data)
        meta = json.loads(str(stored["meta"]))
        if entry in stored:
            del stored[entry]
            message = f"checkpoint has no array {entry}"
        else:
            del meta["extra"][entry]
            message = f"checkpoint has no extra entry {entry!r}"
        stored["meta"] = np.array(json.dumps(meta))
        np.savez(path, **stored)
        (out / f"eval_{which}.txt").unlink(missing_ok=True)
        capsys.readouterr()
        assert run("eval", which, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
        assert not (out / f"eval_{which}.txt").exists()

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda refs: refs[:, :-1], "reference banks are 5 wide, the network takes 6"),
            (lambda refs: refs[:0], "need at least one reference per class"),
            (lambda refs: np.where(refs == refs[2, 3], np.nan, refs),
             "reference bank refs0 contains non-finite values"),
        ],
    )
    def test_reference_bank_of_the_wrong_width_or_non_finite_rejected(
        self, tmp_path, capsys, damage, message
    ):
        out = tmp_path / "run"
        pipeline(out, seed=20)
        path = out / "siamese_model.npz"
        with np.load(path) as data:
            stored = dict(data)
        stored["refs0"] = damage(stored["refs0"])
        if stored["refs0"].shape != stored["refs1"].shape:
            stored["refs1"] = damage(stored["refs1"])
        np.savez(path, **stored)
        (out / "eval_siamese.txt").unlink()
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
        assert not (out / "eval_siamese.txt").exists()

    @pytest.mark.parametrize("labels", [0, 2])
    def test_schema_needs_one_label_column(self, tmp_path, capsys, labels):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 14)
        run("train", "base", "--out", out, "--seed", 14, "--epochs", 1)
        header, *rows = (out / "schema.csv").read_text().splitlines()
        rows = [row[:-1] + ("1" if j < labels else "0") for j, row in enumerate(rows)]
        (out / "schema.csv").write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert run("eval", "base", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {out / 'schema.csv'}: schema must have exactly one label column, "
            f"found {labels}"
        ]

    def test_base_report_schema(self, tmp_path):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 14)
        run("train", "base", "--out", out, "--seed", 14, "--epochs", 2)
        assert run("eval", "base", "--out", out, "--seed", 14) == 0
        kv = dict(
            line.split("=", 1) for line in (out / "eval_base.kv").read_text().splitlines()
        )
        for key in ("precision_class0", "precision_class1", "recall_class0", "recall_class1"):
            assert key in kv


# Flags every stage accepts; each stage reads the ones it needs.
STAGE_FLAGS = (
    "--synthetic", "300,6,0.2", "--seed", 31, "--epochs", 1,
    "--pairs-diff", 400, "--pairs-same0", 200, "--pairs-same1", 200,
)
STAGE_READS = [(name, read) for name, (_, reads, _) in cli.STAGES.items() for read in reads]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """A run directory after every stage of the table, run in table order."""
    out = tmp_path_factory.mktemp("full") / "run"
    for name in cli.STAGES:
        assert run(*name.split(), *STAGE_FLAGS, "--out", out) == 0, name
    return out


def only_reads(full_run, tmp_path, name, skip=None):
    """A run directory holding the artifacts a stage declares it reads,
    except skip, copied from a full run."""
    out = tmp_path / "run"
    out.mkdir()
    for read in cli.STAGES[name][1]:
        if read != skip:
            shutil.copy(full_run / read, out / read)
    return out


class TestStageTable:
    def test_each_read_has_one_earlier_producer(self):
        names = list(cli.STAGES)
        for name, read in STAGE_READS:
            producers = [n for n, (_, _, writes) in cli.STAGES.items() if read in writes]
            assert len(producers) == 1, read
            assert names.index(producers[0]) < names.index(name), (name, read)

    @pytest.mark.parametrize("name", list(cli.STAGES))
    def test_stage_leaves_exactly_its_reads_and_writes(self, full_run, tmp_path, name):
        _, reads, writes = cli.STAGES[name]
        out = only_reads(full_run, tmp_path, name)
        assert run(*name.split(), *STAGE_FLAGS, "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(set(reads) | set(writes))
        for write in writes:
            assert (out / write).read_bytes() == (full_run / write).read_bytes(), write

    @pytest.mark.parametrize("name,read", STAGE_READS)
    def test_missing_read_names_the_stage_that_writes_it(
        self, full_run, tmp_path, capsys, name, read
    ):
        producer = next(n for n, (_, _, writes) in cli.STAGES.items() if read in writes)
        out = only_reads(full_run, tmp_path, name, skip=read)
        capsys.readouterr()
        assert run(*name.split(), *STAGE_FLAGS, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: missing artifact {out / read}; run the earlier stages first "
            f"(siamtab {producer})"
        ]
        assert not [w for w in cli.STAGES[name][2] if (out / w).exists()]
        # and the stage itself, run without the check, needs the file
        func, command = cli.STAGES[name][0], name.split()
        args = cli.build_parser().parse_args([*command, *map(str, STAGE_FLAGS), "--out", str(out)])
        with pytest.raises(OSError, match=read):
            func(cli.resolve_config(args), *command[1:])


class TestEndToEndDeterminism:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline(a, seed=21)
        pipeline(b, seed=21)
        for name in ("siamese_history.csv", "eval_siamese.txt", "eval_siamese.kv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline(a, seed=21)
        pipeline(b, seed=22)
        assert (a / "siamese_history.csv").read_bytes() != (b / "siamese_history.csv").read_bytes()


# Functions the benchmark tracer wraps (or, for nn.infer, may wrap) that eval
# and training reach; its spans nest on one stack, so none may run off the
# main thread.
MAIN_THREAD_ONLY = (
    (nn, "forward"), (nn, "infer"), (nn, "euclidean_distance"), (siamese, "pair_forward"),
    (siamese, "classify_table"), (train, "evaluate_pairs"), (train, "evaluate_classifier"),
)


class TestHelperThreads:
    def test_traced_functions_run_on_the_main_thread_only(self, tmp_path, monkeypatch, set_cores):
        set_cores(4)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "siamtab"]
        calls, off_main, splits = [], [], []

        def patch_everywhere(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)

        def watched(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(name)
                return fn(*args, **kwargs)

            return wrapper

        over_rows = nn.over_rows

        def counting_over_rows(n, fn, rows, scratch):
            splits.append(min(nn.CORES, -(-n // rows)))  # threads asked to take pieces
            return over_rows(n, fn, rows, scratch)

        patch_everywhere(over_rows, counting_over_rows)
        for module, name in MAIN_THREAD_ONLY:
            original = getattr(module, name)
            patch_everywhere(original, watched(name, original))
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "1200,15,0.15", "--out", out, "--seed", 5) == 0
        assert run(
            "pairs", "--out", out, "--seed", 5,
            "--pairs-diff", 4000, "--pairs-same0", 2000, "--pairs-same1", 2000,
        ) == 0
        assert run("train", "siamese", "--out", out, "--seed", 5, "--epochs", 1) == 0
        assert run("eval", "siamese", "--out", out, "--seed", 5) == 0
        assert {"forward", "infer", "pair_forward", "evaluate_pairs", "classify_table"} <= set(calls)
        assert off_main == []
        # validation and eval took the split path: some call split four ways
        assert max(splits) == 4


class TestExportCmd:
    def test_curve_files(self, tmp_path):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 15)
        run("train", "base", "--out", out, "--seed", 15, "--epochs", 3)
        assert run("export", "base", "--out", out) == 0
        acc = (out / "accuracy_base.csv").read_text().splitlines()
        loss = (out / "loss_base.csv").read_text().splitlines()
        assert acc[0] == "epoch,train_acc,val_acc"
        assert loss[0] == "epoch,train_loss,val_loss"
        assert len(acc) == 4 and len(loss) == 4

    def test_malformed_history_row_writes_no_curves(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 15)
        run("train", "base", "--out", out, "--seed", 15, "--epochs", 1)
        with open(out / "base_history.csv", "a") as fh:
            fh.write("x,1_1.23,0.5,0.5,0.5\n")  # float() reads 1_1.23 as 11.23
        capsys.readouterr()
        assert run("export", "base", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {out / 'base_history.csv'}: line 3: malformed history row: "
            "non-numeric value 'x' in column 'epoch'"
        ]
        assert not (out / "loss_base.csv").exists()

    def test_export_needs_history(self, tmp_path):
        assert run("export", "base", "--out", tmp_path / "none") == 1


class TestConfigFile:
    def test_precedence_defaults_config_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 33\npairs-diff = 12\npairs-same0 = 4\npairs-same1 = 4\n# comment\n")
        out = tmp_path / "run"
        run("prepare", "--synthetic", "100,4,0.4", "--out", out, "--config", cfg)
        capsys.readouterr()
        # config file sets the counts; the flag beats the file for pairs-diff
        assert run("pairs", "--out", out, "--config", cfg, "--pairs-diff", 8) == 0
        text = capsys.readouterr().out
        assert "seed=33" in text
        assert "pairs: 16 total (diff=8, same0=4, same1=4)" in text

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not-a-key = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            read_config_file(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed\n")
        with pytest.raises(ValueError, match="key=value"):
            read_config_file(cfg)

    @pytest.mark.parametrize(
        "line,fault",
        [
            ("seed=abc", "seed: invalid literal for int() with base 10: 'abc'"),
            ("synthetic = 100,4", "synthetic: --synthetic expects n,d,imbalance"),
        ],
    )
    def test_value_that_fails_its_cast_names_file_and_line(self, tmp_path, capsys, line, fault):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n{line}\n")
        assert run("prepare", "--synthetic", "100,4,0.4", "--out", tmp_path / "run", "--config", cfg) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}: line 2: {fault}"]

    @pytest.mark.parametrize("form", ["flag", "config file"])
    def test_empty_out_is_refused_and_nothing_written(self, tmp_path, monkeypatch, capsys, form):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out=\n")
        where = ["--out", ""] if form == "flag" else ["--config", cfg]
        assert run("prepare", "--synthetic", "100,3,0.2", *where) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: out must name a run directory, got an empty value"]
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize(
        "stage,key,value,low",
        [
            ("prepare", "seed", -1, 0),
            ("pairs", "pairs-diff", -5, 0),
            ("pairs", "pairs-same0", -1, 0),
            ("pairs", "pairs-same1", -1, 0),
            ("train siamese", "k-refs", 0, 1),
        ],
    )
    @pytest.mark.parametrize("form", ["flag", "config file"])
    def test_integer_below_its_range_names_the_setting(
        self, tmp_path, capsys, stage, key, value, low, form
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        where = [f"--{key}", value] if form == "flag" else ["--config", cfg]
        out = tmp_path / "run"
        extra = ["--synthetic", "100,3,0.3"] if stage == "prepare" else []
        assert run(*stage.split(), "--out", out, *extra, *where) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {key} must be >= {low}, got {value}"]
        assert captured.out == "" and not out.exists()

    def test_bad_synthetic_spec_exits_nonzero(self, tmp_path, capsys):
        assert run("prepare", "--synthetic", "1,2", "--out", tmp_path / "x") == 1
        assert "n,d,imbalance" in capsys.readouterr().err


class TestStageSeeds:
    def test_distinct_per_stage_and_stable(self):
        seeds = [stage_seed(7, k) for k in range(7)]
        assert len(set(seeds)) == 7
        assert seeds == [stage_seed(7, k) for k in range(7)]


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["eval", "--help"],
            ["train", "siamese", "--help"],
            [],
            ["eval"],
            ["eval", "nope"],
            ["pairs", "--seed", "x"],
            ["prepare", "--synthetic", "100,3,0.2", "--seed", "4", "--out", "{out}"],
        ],
    )
    def test_one_parser_serves_every_call_with_the_same_output(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        argv = [arg.format(out=tmp_path / "run") for arg in argv]
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        outputs, n_built = [], []
        for _ in range(2):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, capsys.readouterr()))
            n_built.append(len(built))
        assert n_built[0] > 0 and n_built[1] == n_built[0]
        assert outputs[0] == outputs[1]
