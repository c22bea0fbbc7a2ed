import argparse
import json
import re
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import assert_text_copy_is_the_grid, load_pairs_csv_rows, pair_counts
from siamtab import cli, pairs, train
from siamtab.cli import main, read_config_file, stage_seed
from siamtab.nn import load_checkpoint
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

    def test_text_copy_of_a_framingham_shaped_table_is_its_grid(self, tmp_path, monkeypatch):
        # no stage reads normalized.csv, so its round trip is checked here
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import framingham

        out = tmp_path / "run"
        assert run("prepare", "--data", framingham.write_csv(tmp_path / "in.csv", 11),
                   "--out", out, "--seed", 5) == 0
        assert_text_copy_is_the_grid(out / "normalized.csv")

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

    # line 5 is in the reader's first 8 KB, line 400 past it
    @pytest.mark.parametrize("line", [5, 400])
    def test_data_not_utf8_names_file_and_line(self, tmp_path, capsys, line):
        from siamtab.data import framingham_schema

        schema = framingham_schema()
        rows = [",".join(c.name for c in schema)]
        rows += [",".join(["1"] * (len(schema) - 1) + [str(i % 2)]) for i in range(500)]
        rows[line - 1] = rows[line - 1][:2] + "\xe9" + rows[line - 1][3:]
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes("\n".join(rows).encode("latin-1"))
        at = sum(len(r) + 1 for r in rows[: line - 1]) + 2
        assert run("prepare", "--data", csv_path, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {csv_path}: line {line}: 'utf-8' codec can't decode byte 0xe9 in "
            f"position {at}: invalid continuation byte"
        ]

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

    def test_no_count_flags_write_the_default_counts_bytes(self, tmp_path, capsys):
        # the counts default to None, which `pairs` resolves to 100000 /
        # 50000 / 50000: the files, run.json and the printed line are those
        # of the explicit counts
        outs, printed = [], []
        for counts in ((), ("--pairs-diff", 100000, "--pairs-same0", 50000, "--pairs-same1", 50000)):
            out = tmp_path / f"run{len(outs)}"
            assert run("prepare", "--synthetic", "120,4,0.3", "--out", out, "--seed", 8) == 0
            capsys.readouterr()
            assert run("pairs", "--out", out, "--seed", 8, *counts) == 0
            printed.append([l for l in capsys.readouterr().out.splitlines() if l.startswith("pairs:")])
            outs.append(out)
        assert printed[0] == printed[1]
        assert printed[0][0].startswith("pairs: 200000 total (diff=100000, same0=50000, same1=50000)")
        for name in ("pairs_train.csv", "pairs_test.csv", "run.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_printed_counts_are_the_files_counts(self, tmp_path, capsys):
        # pairs prints the counts it was asked for; they must be what the
        # two files hold, counted from their flags and the table's labels
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "90,4,0.3", "--out", out, "--seed", 5) == 0
        capsys.readouterr()
        assert run(
            "pairs", "--out", out, "--seed", 5, "--pairs-diff", 37, "--pairs-same0", 11, "--pairs-same1", 6
        ) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("pairs:")]
        labels = np.loadtxt(out / "normalized.csv", delimiter=",", skiprows=1)[:, -1].astype(np.int64)
        files = [load_pairs_csv_rows(out / f"pairs_{part}.csv") for part in ("train", "test")]
        left, right, similar = (np.concatenate(column) for column in zip(*files))
        assert np.array_equal(similar, labels[left] == labels[right])
        diff, same0, same1 = pair_counts(labels, left, similar)
        assert (diff, same0, same1) == (37, 11, 6)
        total = diff + same0 + same1
        n_train, n_test = len(files[0][0]), len(files[1][0])
        assert (n_train, n_test) == (round(0.8 * total), total - round(0.8 * total))
        assert printed == [
            f"pairs: {total} total (diff={diff}, same0={same0}, same1={same1}) "
            f"-> train={n_train}, test={n_test}"
        ]

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

    def test_eval_echoes_margin_and_k_refs_as_default_and_reads_the_checkpoint(
        self, tmp_path, capsys
    ):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "300,6,0.3", "--out", out, "--seed", 3)
        run("pairs", "--out", out, "--seed", 3, "--pairs-diff", 400, "--pairs-same0", 200, "--pairs-same1", 200)
        capsys.readouterr()
        assert run(
            "train", "siamese", "--out", out, "--seed", 3, "--epochs", 1, "--k-refs", 3, "--margin", 2.0
        ) == 0
        echo = capsys.readouterr().out.splitlines()
        assert "  margin=2.0" in echo and "  k-refs=3" in echo
        assert run("eval", "siamese", "--out", out, "--seed", 3) == 0
        echo = capsys.readouterr().out.splitlines()
        assert "  margin=default" in echo and "  k-refs=default" in echo
        _, _, extra, arrays = load_checkpoint(out / "siamese_model.npz")
        assert extra["margin"] == 2.0
        assert len(arrays["refs0"]) == len(arrays["refs1"]) == 3

    @pytest.mark.parametrize(
        "which,flags,fault",
        [
            # the last step of the only epoch makes the float32 weights
            # non-finite; no later batch loss would show it
            ("siamese", ("--lr", "1e40"), "non-finite parameters after epoch 1"),
            # one full-batch step leaves finite weights whose validation
            # forward overflows
            ("base", ("--batch-size", "1000", "--lr", "1e300"),
             "non-finite validation loss nan after epoch 1"),
        ],
    )
    def test_a_diverged_run_exits_1_and_writes_no_checkpoint(self, tmp_path, which, flags, fault):
        # a subprocess, so numpy's RuntimeWarnings would show on stderr
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "300,6,0.3", "--out", out, "--seed", 3) == 0
        assert run(
            "pairs", "--out", out, "--seed", 3, "--pairs-diff", 40, "--pairs-same0", 20, "--pairs-same1", 20
        ) == 0
        paths = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-m", "siamtab.cli", "train", which, "--out", str(out), "--seed", "3",
             "--epochs", "1", *flags],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [f"error: training diverged: {fault}"]
        assert not (out / f"{which}_model.npz").exists()
        assert not (out / f"{which}_history.csv").exists()
        assert f"train {which}" not in json.loads((out / cli.MANIFEST).read_text())

    def test_default_margin_k_refs_and_threshold_write_the_bytes_of_1_10_and_half(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out, flags in zip(outs, ((), ("--k-refs", 10, "--margin", 1.0, "--threshold", 0.5))):
            run("prepare", "--synthetic", "300,6,0.3", "--out", out, "--seed", 3)
            run("pairs", "--out", out, "--seed", 3, "--pairs-diff", 400, "--pairs-same0", 200, "--pairs-same1", 200)
            assert run("train", "siamese", "--out", out, "--seed", 3, "--epochs", 1, *flags) == 0
        for name in ("siamese_model.npz", "siamese_history.csv", cli.MANIFEST):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize(
        "flags,echoed,want",
        [(("--margin", 2.0), "default", 1.0), (("--margin", 2.0, "--threshold", 0.3), "0.3", 0.3)],
    )
    def test_unset_threshold_is_half_the_margin(self, tmp_path, capsys, flags, echoed, want):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "300,6,0.3", "--out", out, "--seed", 3)
        run("pairs", "--out", out, "--seed", 3, "--pairs-diff", 400, "--pairs-same0", 200, "--pairs-same1", 200)
        capsys.readouterr()
        assert run("train", "siamese", "--out", out, "--seed", 3, "--epochs", 1, *flags) == 0
        assert f"  threshold={echoed}\n" in capsys.readouterr().out
        _, _, extra, _ = load_checkpoint(out / "siamese_model.npz")
        assert extra["pair_threshold"] == want

    @pytest.mark.parametrize(
        "edit",
        [
            lambda i, part: (i, "tset"),
            lambda i, part: ("150", part),
            lambda i, part: ("-1", part),
        ],
        ids=["bad part", "index past the table", "negative index"],
    )
    def test_hand_edited_split_row_is_refused_as_stale(self, tmp_path, capsys, edit):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 7)
        lines = (out / "splits.csv").read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.endswith(",train"))
        lines[k] = ",".join(edit(*lines[k].split(",")))
        (out / "splits.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("train", "base", "--out", out, "--epochs", 1) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [stale(out, "splits.csv", "prepare")]
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


def part_fault(cell):
    return f"part must be 'train' or 'test', got {cell!r}"


NOT_ONCE = "the indices must list each of the 2 table rows once"

# Each body follows the header "index,part"; read for a table of 2 rows. A
# message that is a pattern stands for numpy's own words on a body it
# cannot parse.
SPLIT_BODIES = {
    "0,test\n1,train\n": ([1], [0]),
    "0,test\n1,trainx\n": part_fault("trainx"),  # a 5-wide read would cut it to 'train'
    "0,test\n1,trainxy\n": part_fault("trainx"),
    "0,test\n1,tset\n": part_fault("tset"),
    "0,test\n1, train\n": part_fault(" train"),
    "0,test\n1,train \n": part_fault("train "),
    "0,test\n+1,train\n": ([1], [0]),
    "0,test\n 1,test\n": ([], [0, 1]),
    "0,test\n1.0,train\n": re.compile(r"malformed splits row: .*'1\.0'.*"),
    "0,test\n1_0,train\n": re.compile(r"malformed splits row: .*'1_0'.*"),
    "0,test\n1\n2,train\n": re.compile(r"malformed splits row: .*"),
    "0,test\n1,train,0\n": re.compile(r"malformed splits row: .*"),
    "0,test\n   \n": re.compile(r"malformed splits row: .*"),
    # an empty line is no row
    "0,test\n\n2,train\n": NOT_ONCE,
    "0,test\n1,train": ([1], [0]),
    "0,test\n\n": NOT_ONCE,
    "0,test\n0,train\n": NOT_ONCE,
    "0,test\n-1,train\n": NOT_ONCE,
    # rows in any order
    "1,train\n0,test\n": ([1], [0]),
    # the parts are checked before the indices, whichever comes first in
    # file order or on one row
    "7,test\n1,tset\n": part_fault("tset"),
    "0,tset\n7,test\n": part_fault("tset"),
    "7,tset\n": part_fault("tset"),
    "": NOT_ONCE,
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
        want, got = SPLIT_BODIES[body], read_splits(path, 2)
        assert want.fullmatch(got) if isinstance(want, re.Pattern) else got == want

    @pytest.mark.parametrize("row", ["1_0,{part}", "0,{part}", None])
    def test_split_edited_after_training_is_refused_as_stale(self, tmp_path, capsys, row):
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
        assert err == [stale(out, "splits.csv", "prepare")]
        assert not (out / "eval_base.txt").exists()


def stale(out, name, producer):
    """The error line of a run_stage refusal of a hand-edited artifact."""
    return (
        f"error: {out / name} does not match what siamtab {producer} last wrote; "
        f"re-run siamtab {producer}"
    )


def made_from(out, name, source, producer):
    """The error line of a run_stage refusal of an artifact made from another input."""
    return f"error: {out / name} was made from another {source}; re-run siamtab {producer}"


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


def swap_parts(path):
    """Swap the parts of the first train and the first test row of a splits
    file, which leaves it a permutation of the rows."""
    parts = [line.split(",")[1] for line in path.read_text().splitlines()]
    train_line, test_line = parts.index("train") + 1, parts.index("test") + 1
    edit_cell(path, train_line, 1, "test")
    edit_cell(path, test_line, 1, "train")


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
    def test_pair_counts_echo_default_outside_pairs(self, trained_run, tmp_path, capsys):
        # the pairs were drawn at 400/200/200; eval reads no pair count, and
        # echoes none
        out = copy_run(trained_run, tmp_path)
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 0
        stdout = capsys.readouterr().out.splitlines()
        for key in ("pairs-diff", "pairs-same0", "pairs-same1"):
            assert f"  {key}=default" in stdout[1 : 1 + len(cli._FLAGS)]

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
        self, trained_run, tmp_path, capsys, rerecord, damage, fault
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        damage(path)
        rerecord(out, path.name)
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
        self, trained_run, tmp_path, capsys, rerecord, edit, message
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        edit_meta(path, edit)
        rerecord(out, path.name)
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
        assert not (out / "eval_siamese.txt").exists()

    @pytest.mark.parametrize("which", ["base", "siamese"])
    def test_checkpoint_for_a_table_of_another_width_names_it_and_the_stage(
        self, trained_run, tmp_path, capsys, which
    ):
        # trained on 6 feature columns, then the table is prepared again
        # with 5: the model was made from another schema.csv
        out = copy_run(trained_run, tmp_path)
        if which == "base":
            assert run("train", "base", "--out", out, "--seed", 23, "--epochs", 1) == 0
        assert run("prepare", "--synthetic", "300,5,0.2", "--out", out, "--seed", 23) == 0
        capsys.readouterr()
        assert run("eval", which, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            made_from(out, f"{which}_model.npz", "schema.csv", f"train {which}")
        ]
        assert not (out / f"eval_{which}.txt").exists()

    @pytest.mark.parametrize("which", ["base", "siamese"])
    def test_recorded_checkpoint_of_another_width_fails_the_width_check(
        self, trained_run, tmp_path, capsys, rerecord, which
    ):
        # the same, with run.json vouching for the model (and the pair model's
        # test pairs) as made from the new table: the checkpoint's own width
        # check refuses it, before the test pairs are read
        out = copy_run(trained_run, tmp_path)
        if which == "base":
            assert run("train", "base", "--out", out, "--seed", 23, "--epochs", 1) == 0
        assert run("prepare", "--synthetic", "300,5,0.2", "--out", out, "--seed", 23) == 0
        for name in (f"{which}_model.npz", "pairs_test.csv"):
            rerecord(out, name)
        capsys.readouterr()
        assert run("eval", which, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / f'{which}_model.npz'}: network takes 6 inputs, the table has 5 "
            f"feature columns; re-run siamtab train {which}"
        ]
        assert not (out / f"eval_{which}.txt").exists()

    @pytest.mark.parametrize("which", ["base", "siamese"])
    @pytest.mark.parametrize("edit", ["prepare", "swap"])
    def test_checkpoint_trained_on_another_table_or_split_names_it_and_the_stage(
        self, trained_run, tmp_path, capsys, which, edit
    ):
        # the table prepared again at another seed, of the same width: the
        # model was made from another normalized.npz. Or the parts of one
        # train and one test row swapped, which leaves the split a
        # permutation of the rows: splits.csv is not what prepare wrote.
        out = copy_run(trained_run, tmp_path)
        if which == "base":
            assert run("train", "base", "--out", out, "--seed", 23, "--epochs", 1) == 0
        if edit == "prepare":
            assert run("prepare", "--synthetic", "300,6,0.2", "--out", out, "--seed", 24) == 0
            want = made_from(out, f"{which}_model.npz", "normalized.npz", f"train {which}")
        else:
            swap_parts(out / "splits.csv")
            want = stale(out, "splits.csv", "prepare")
        capsys.readouterr()
        assert run("eval", which, "--out", out, "--seed", 24) == 1
        assert capsys.readouterr().err.splitlines() == [want]
        assert not (out / f"eval_{which}.txt").exists()

    @pytest.mark.parametrize("which", ["base", "siamese"])
    def test_eval_hashes_each_read_and_write_once(self, trained_run, tmp_path, monkeypatch, which):
        out = copy_run(trained_run, tmp_path)
        if which == "base":
            assert run("train", "base", "--out", out, "--seed", 23, "--epochs", 1) == 0
        hashed, sha256 = [], cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path.name) or sha256(path))
        assert run("eval", which, "--out", out) == 0
        _, reads, writes = cli.STAGES[f"eval {which}"]
        assert hashed == [*reads, *writes]

    @pytest.mark.parametrize("which", ["base", "siamese"])
    def test_table_prepared_again_at_the_same_seed_is_accepted(self, trained_run, tmp_path, which):
        # the same bytes as before, so the model's recorded reads still match
        out = copy_run(trained_run, tmp_path)
        if which == "base":
            assert run("train", "base", "--out", out, "--seed", 23, "--epochs", 1) == 0
            assert run("eval", "base", "--out", out, "--seed", 23) == 0
            first = (out / "eval_base.txt").read_bytes()
        else:
            first = (trained_run / "eval_siamese.txt").read_bytes()
        assert run("prepare", "--synthetic", "300,6,0.2", "--out", out, "--seed", 23) == 0
        assert run("eval", which, "--out", out, "--seed", 23) == 0
        assert (out / f"eval_{which}.txt").read_bytes() == first

    @pytest.mark.parametrize(
        "name,convert,message",
        [
            ("b1", lambda b: b + 1j, "array b1 has dtype complex64, expected float32"),
            ("refs0", lambda r: r.astype(object),
             "not a readable checkpoint "
             "(ValueError: Object arrays cannot be loaded when allow_pickle=False)"),
        ],
        ids=["complex bias", "pickled reference bank"],
    )
    def test_checkpoint_array_of_another_dtype_fails_with_one_error_line(
        self, trained_run, tmp_path, capsys, rerecord, name, convert, message
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        with np.load(path) as data:
            stored = dict(data)
        stored[name] = convert(stored[name])
        np.savez(path, **stored)
        rerecord(out, path.name)
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: {message}"]
        assert not (out / "eval_siamese.txt").exists()

    @pytest.mark.parametrize("which", ["base", "siamese"])
    def test_version_1_checkpoint_names_the_stage_that_rewrites_it(
        self, trained_run, tmp_path, capsys, rerecord, which
    ):
        # a float64 checkpoint of version 1, which named no dtype, recorded
        # as its producer's write: the refusal comes from the checkpoint
        # reader
        out = copy_run(trained_run, tmp_path)
        if which == "base":
            assert run("train", "base", "--out", out, "--seed", 23, "--epochs", 1) == 0
        path = out / f"{which}_model.npz"
        with np.load(path) as data:
            stored = dict(data)
        meta = json.loads(str(stored.pop("meta")))
        dtype = "float64" if which == "base" else "float32"
        assert meta.pop("dtype") == dtype and stored["w0"].dtype == dtype
        meta["version"] = 1
        for name in stored:
            if name[0] in "wb":
                stored[name] = stored[name].astype(np.float64)
        np.savez(path, meta=np.array(json.dumps(meta)), **stored)
        rerecord(out, path.name)
        capsys.readouterr()
        assert run("eval", which, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: unsupported checkpoint version 1; re-run siamtab train {which}"
        ]
        assert not (out / f"eval_{which}.txt").exists()

    @pytest.mark.parametrize("entry", ["seed", "margin", "pair_threshold"])
    @pytest.mark.parametrize("value", ["1.0", float("nan"), True])
    def test_checkpoint_extra_that_is_not_a_finite_number_rejected(
        self, trained_run, tmp_path, capsys, rerecord, entry, value
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        edit_meta(path, lambda meta: meta["extra"].update({entry: value}))
        rerecord(out, path.name)
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
        self, trained_run, tmp_path, capsys, rerecord, entry, value
    ):
        out = copy_run(trained_run, tmp_path)
        path = out / "siamese_model.npz"
        edit_meta(path, lambda meta: meta["extra"].update({entry: value}))
        rerecord(out, path.name)
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

    @pytest.mark.parametrize("form", ["no setting", "flag", "config file"])
    def test_eval_threshold_is_the_checkpoints_unless_set(
        self, trained_run, tmp_path, monkeypatch, capsys, form
    ):
        out = copy_run(trained_run, tmp_path)
        assert run("train", "siamese", "--out", out, "--seed", 23, "--epochs", 1, "--threshold", 0.3) == 0
        config = tmp_path / "run.cfg"
        config.write_text("threshold=0.7\n")
        setting = {"no setting": [], "flag": ["--threshold", 0.7], "config file": ["--config", config]}
        want = 0.3 if form == "no setting" else 0.7
        seen, evaluate = [], cli.evaluate_pairs
        monkeypatch.setattr(
            cli, "evaluate_pairs", lambda model, *args: seen.append(model) or evaluate(model, *args)
        )
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out, *setting[form]) == 0
        echoed = "default" if form == "no setting" else "0.7"
        assert f"  threshold={echoed}\n" in capsys.readouterr().out
        assert [model.pair_threshold for model in seen] == [want]
        assert f"pair_threshold={want!r}\n" in (out / "eval_siamese.kv").read_text()
        assert f"pair threshold: {want}\n" in (out / "eval_siamese.txt").read_text()

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

    def test_checkpoint_of_the_wrong_kind_rejected(self, tmp_path, capsys, rerecord):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 16)
        run("pairs", "--out", out, "--seed", 16, "--pairs-diff", 40, "--pairs-same0", 20, "--pairs-same1", 20)
        run("train", "base", "--out", out, "--seed", 16, "--epochs", 1)
        shutil.copy(out / "base_model.npz", out / "siamese_model.npz")
        rerecord(out, "siamese_model.npz")
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "kind is 'base', expected 'siamese'" in err[0]
        assert not (out / "eval_siamese.txt").exists()

    def test_checkpoint_shape_mismatch_rejected(self, tmp_path, capsys, rerecord):
        out = tmp_path / "run"
        pipeline(out, seed=17)
        path = out / "siamese_model.npz"
        with np.load(path) as data:
            stored = dict(data)
        stored["w1"] = stored["w1"][:-1]
        np.savez(path, **stored)
        rerecord(out, path.name)
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "w1 has shape (255, 256)" in err[0]

    @pytest.mark.parametrize("row", ["1,2", "1,99999,0", "-1,2,0", "1,2,7"])
    def test_pair_row_appended_after_pairs_is_refused_as_stale(self, tmp_path, capsys, row):
        out = tmp_path / "run"
        pipeline(out, seed=18)
        with open(out / "pairs_test.csv", "a") as fh:
            fh.write(row + "\n")
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [stale(out, "pairs_test.csv", "pairs")]

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
    def test_checkpoint_without_an_entry_eval_reads_rejected(
        self, tmp_path, capsys, rerecord, which, entry
    ):
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
        rerecord(out, path.name)
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
        self, tmp_path, capsys, rerecord, damage, message
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
        rerecord(out, path.name)
        (out / "eval_siamese.txt").unlink()
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
        assert not (out / "eval_siamese.txt").exists()

    @pytest.mark.parametrize("labels", [0, 2])
    def test_schema_needs_one_label_column(self, tmp_path, capsys, rerecord, labels):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 14)
        header, *rows = (out / "schema.csv").read_text().splitlines()
        rows = [row[:-1] + ("1" if j < labels else "0") for j, row in enumerate(rows)]
        (out / "schema.csv").write_text("\n".join([header, *rows]) + "\n")
        rerecord(out, "schema.csv")
        capsys.readouterr()
        assert run("train", "base", "--out", out, "--epochs", 1) == 1
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

    def test_report_bytes(self, full_run, tmp_path, monkeypatch, capsys):
        # hand-built reports pin every byte of both files and of the report
        # on stdout: header, blank lines, key order, :.4f lines, repr values
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        # tn=5 fp=2 fn=1 tp=3; and tn=2 fn=1, so precision class 1 is 0/0
        first = train.EvalReport.from_predictions([0] * 7 + [1] * 4, [0] * 5 + [1] * 2 + [0] + [1] * 3)
        second = train.EvalReport.from_predictions([0, 0, 1], [0, 0, 0])
        monkeypatch.setattr(cli, "evaluate_pairs", lambda *args: first)
        monkeypatch.setattr(cli, "evaluate_classifier", lambda *args: second)
        first_lines = [
            "confusion matrix [[TN, FP], [FN, TP]]: [[5, 2], [1, 3]]",
            "accuracy:          0.7273",
            "precision class 0: 0.8333",
            "precision class 1: 0.6000",
            "recall class 0:    0.7143",
            "recall class 1:    0.7500",
        ]
        first_kv = [
            "tn=5", "fp=2", "fn=1", "tp=3",
            "accuracy=0.7272727272727273",
            "precision_class0=0.8333333333333334",
            "precision_class1=0.6",
            "recall_class0=0.7142857142857143",
            "recall_class1=0.75",
        ]
        second_lines = [
            "confusion matrix [[TN, FP], [FN, TP]]: [[2, 0], [1, 0]]",
            "accuracy:          0.6667",
            "precision class 0: 0.6667",
            "precision class 1: 0.0000",
            "recall class 0:    1.0000",
            "recall class 1:    0.0000",
        ]
        second_kv = [
            "tn=2", "fp=0", "fn=1", "tp=0",
            "accuracy=0.6666666666666666",
            "precision_class0=0.6666666666666666",
            "precision_class1=0.0",
            "recall_class0=1.0",
            "recall_class1=0.0",
        ]
        want = {
            "base": (
                ["evaluation: base network (held-out samples)", "seed: 31", "samples: 60"]
                + second_lines,
                ["report=base", "seed=31", "samples=60"] + second_kv,
            ),
            "siamese": (
                [
                    "evaluation: siamese network",
                    "seed: 31",
                    "pair threshold: 0.5",
                    "",
                    "pair-level (held-out pairs, n=160, similar = positive):",
                    *first_lines,
                    "",
                    "sample-level (held-out samples via reference bank, n=60):",
                    *second_lines,
                ],
                ["report=siamese", "seed=31", "pair_threshold=0.5", "pairs=160", "samples=60"]
                + [f"pair_{line}" for line in first_kv]
                + [f"sample_{line}" for line in second_kv],
            ),
        }
        for which, (text, kv) in want.items():
            capsys.readouterr()
            assert run("eval", which, "--out", out) == 0
            stdout = capsys.readouterr().out.splitlines(keepends=True)
            text = "".join(f"{line}\n" for line in text)
            assert (out / f"eval_{which}.txt").read_text() == text
            assert (out / f"eval_{which}.kv").read_text() == "".join(f"{line}\n" for line in kv)
            # stdout is the effective config, one line a setting, then the report
            assert stdout[0] == "effective config:\n"
            # eval reads no seed: given none, it echoes so and reports the checkpoint's
            assert "  seed=default\n" in stdout[1 : 1 + len(cli._FLAGS)]
            assert "".join(stdout[1 + len(cli._FLAGS):]) == text


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
    except skip, and run.json, copied from a full run."""
    out = tmp_path / "run"
    out.mkdir()
    for read in cli.STAGES[name][1] + (cli.MANIFEST,):
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
        made = {*reads, *writes, cli.MANIFEST, cli.MANIFEST_LOCK}
        assert sorted(p.name for p in out.iterdir()) == sorted(made)
        for write in (*writes, cli.MANIFEST):
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


class TestRunManifest:
    def test_pair_file_cut_at_a_write_chunk_is_refused(self, trained_run, tmp_path, capsys):
        # as in the eval-full benchmark, pairs are drawn again at a larger
        # count after training: eval reads no pairs_train.csv, so the model's
        # recorded one is not compared, and eval runs
        out = copy_run(trained_run, tmp_path)
        assert run(
            "pairs", "--out", out, "--seed", 23,
            "--pairs-diff", 24000, "--pairs-same0", 12000, "--pairs-same1", 12000,
        ) == 0
        assert run("eval", "siamese", "--out", out, "--seed", 23) == 0
        # what a writer that stopped after its first chunk leaves: a well
        # formed file of fewer pairs
        path = out / "pairs_test.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) > 1 + pairs._WRITE_CHUNK
        path.write_bytes(b"".join(lines[: 1 + pairs._WRITE_CHUNK]))
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out, "--seed", 23) == 1
        assert capsys.readouterr().err.splitlines() == [stale(out, "pairs_test.csv", "pairs")]

    @pytest.mark.parametrize("stage", ["train base", "eval base"])
    def test_split_with_a_train_and_a_test_row_swapped_is_refused(self, tmp_path, capsys, stage):
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "600,6,0.2", "--out", out, "--seed", 7) == 0
        assert run("train", "base", "--out", out, "--seed", 7, "--epochs", 1) == 0
        model = (out / "base_model.npz").read_bytes()
        swap_parts(out / "splits.csv")
        capsys.readouterr()
        assert run(*stage.split(), "--out", out, "--seed", 7, "--epochs", 1) == 1
        assert capsys.readouterr().err.splitlines() == [stale(out, "splits.csv", "prepare")]
        assert (out / "base_model.npz").read_bytes() == model
        assert not (out / "eval_base.txt").exists()

    def test_model_of_a_table_prepared_again_at_another_seed_is_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "600,6,0.2", "--out", out, "--seed", 7) == 0
        assert run("train", "base", "--out", out, "--seed", 7, "--epochs", 2) == 0
        assert run("prepare", "--synthetic", "600,6,0.2", "--out", out, "--seed", 8) == 0
        capsys.readouterr()
        assert run("eval", "base", "--out", out, "--seed", 8) == 1
        assert capsys.readouterr().err.splitlines() == [
            made_from(out, "base_model.npz", "normalized.npz", "train base")
        ]
        assert not (out / "eval_base.txt").exists()

    def test_pairs_older_than_the_table_are_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "300,6,0.2", "--out", out, "--seed", 7) == 0
        assert run(
            "pairs", "--out", out, "--seed", 7,
            "--pairs-diff", 400, "--pairs-same0", 200, "--pairs-same1", 200,
        ) == 0
        assert run("prepare", "--synthetic", "300,6,0.2", "--out", out, "--seed", 8) == 0
        capsys.readouterr()
        assert run("train", "siamese", "--out", out, "--seed", 8, "--epochs", 1) == 1
        assert capsys.readouterr().err.splitlines() == [
            made_from(out, "pairs_train.csv", "normalized.npz", "pairs")
        ]
        assert not (out / "siamese_model.npz").exists()

    @pytest.mark.parametrize(
        "damage",
        [
            "missing", "not JSON", "a list", "an entry without writes", "an entry without reads",
            "an entry that is a list", "reads that are a list",
        ],
    )
    def test_run_without_a_readable_manifest_is_refused(self, trained_run, tmp_path, capsys, damage):
        out = copy_run(trained_run, tmp_path)
        path = out / cli.MANIFEST
        if damage == "missing":
            path.unlink()
        elif damage == "not JSON":
            path.write_text("{")
        elif damage == "a list":
            path.write_text("[]")
        else:
            manifest = json.loads(path.read_text())
            if damage == "an entry without writes":
                del manifest["pairs"]["writes"]
            elif damage == "an entry without reads":
                del manifest["pairs"]["reads"]
            elif damage == "an entry that is a list":
                manifest["pairs"] = list(manifest["pairs"].values())
            else:
                manifest["pairs"]["reads"] = list(manifest["pairs"]["reads"].values())
            path.write_text(json.dumps(manifest))
        for stage in ("pairs", "train base", "train siamese", "eval siamese", "export siamese"):
            capsys.readouterr()
            assert run(*stage.split(), "--out", out, "--seed", 23, "--epochs", 1) == 1, stage
            assert capsys.readouterr().err.splitlines() == [
                f"error: {path} is missing or unreadable; re-run siamtab prepare"
            ]
        # prepare starts a new manifest, which vouches for no later artifact
        assert run("prepare", "--synthetic", "300,6,0.2", "--out", out, "--seed", 23) == 0
        assert list(json.loads(path.read_text())) == ["prepare"]
        capsys.readouterr()
        assert run("eval", "siamese", "--out", out, "--seed", 23) == 1
        assert capsys.readouterr().err.splitlines() == [
            stale(out, "siamese_model.npz", "train siamese")
        ]

    def test_trainers_run_at_once_keep_both_entries(self, tmp_path):
        # both trainers started together on one run directory: each records
        # itself in the manifest as it is when it finishes, not as it was
        # when it started
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "1600,10,0.2", "--out", out) == 0
        counts = ("--pairs-diff", 4000, "--pairs-same0", 2000, "--pairs-same1", 2000)
        assert run("pairs", "--out", out, *counts) == 0
        paths = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        trainers = [
            subprocess.Popen(
                [sys.executable, "-m", "siamtab.cli", "train", which, "--out", str(out),
                 "--epochs", str(epochs)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            for which, epochs in (("base", 3), ("siamese", 2))
        ]
        for trainer in trainers:
            _, err = trainer.communicate(timeout=600)
            assert trainer.returncode == 0, err
        stages = ["pairs", "prepare", "train base", "train siamese"]
        assert sorted(json.loads((out / cli.MANIFEST).read_text())) == stages
        assert not list(out.glob("*.tmp"))
        assert run("eval", "base", "--out", out) == 0
        assert run("eval", "siamese", "--out", out) == 0

    def test_manifest_bytes_are_the_same_across_same_seed_runs(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            pipeline(tmp_path / name, seed=21)
            texts.append((tmp_path / name / cli.MANIFEST).read_text())
        assert texts[0] == texts[1]
        assert "/" not in texts[0] and str(tmp_path) not in texts[0]
        manifest = json.loads(texts[0])
        stages = ("prepare", "pairs", "train siamese", "eval siamese")
        assert sorted(manifest) == sorted(stages)
        for stage in stages:
            _, reads, writes = cli.STAGES[stage]
            for kind, names in (("reads", reads), ("writes", writes)):
                assert manifest[stage][kind] == {
                    name: cli._sha256(tmp_path / "a" / name) for name in names
                }, (stage, kind)

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--k-refs", 500)])
    def test_stage_that_exits_1_leaves_the_manifest_as_it_was(
        self, trained_run, tmp_path, capsys, flag, value
    ):
        out = copy_run(trained_run, tmp_path)
        before = (out / cli.MANIFEST).read_bytes()
        assert run("train", "siamese", "--out", out, "--seed", 23, flag, value) == 1
        assert (out / cli.MANIFEST).read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in trained_run.iterdir() if p.name != "eval_siamese.txt"
        )


class TestEndToEndDeterminism:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline(a, seed=21)
        pipeline(b, seed=21)
        for name in ("siamese_history.csv", "eval_siamese.txt", "eval_siamese.kv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_no_seed_writes_the_bytes_of_seed_0(self, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        flags = (
            "--synthetic", "300,6,0.2", "--epochs", 1,
            "--pairs-diff", 400, "--pairs-same0", 200, "--pairs-same1", 200,
        )
        stdouts = []
        for out, seed in zip(outs, ((), ("--seed", 0))):
            for name in cli.STAGES:
                assert run(*name.split(), *flags, *seed, "--out", out) == 0, name
            stdouts.append(capsys.readouterr().out.replace(str(out), "<out>"))
        assert stdouts[0].count("  seed=default\n") == len(cli.STAGES)
        assert stdouts[0].replace("  seed=default\n", "  seed=0\n") == stdouts[1]
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == sorted(path.name for path in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline(a, seed=21)
        pipeline(b, seed=22)
        assert (a / "siamese_history.csv").read_bytes() != (b / "siamese_history.csv").read_bytes()


class TestOneThread:
    def test_training_and_eval_start_no_thread(self, tmp_path):
        # 320 held-out rows: more than one 256-row piece of inference, and
        # thousands of (row, reference) distances
        before = threading.active_count()
        out = tmp_path / "run"
        assert run("prepare", "--synthetic", "1600,6,0.3", "--out", out, "--seed", 9) == 0
        assert run(
            "pairs", "--out", out, "--seed", 9,
            "--pairs-diff", 400, "--pairs-same0", 200, "--pairs-same1", 200,
        ) == 0
        for which in ("base", "siamese"):
            assert run("train", which, "--out", out, "--seed", 9, "--epochs", 1) == 0
        for which in ("base", "siamese"):
            assert run("eval", which, "--out", out, "--seed", 9) == 0
        assert threading.active_count() == before
        assert not [t.name for t in threading.enumerate() if t.name.startswith("siamtab-rows")]


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

    def test_history_row_appended_after_training_writes_no_curves(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("prepare", "--synthetic", "150,4,0.3", "--out", out, "--seed", 15)
        run("train", "base", "--out", out, "--seed", 15, "--epochs", 1)
        with open(out / "base_history.csv", "a") as fh:
            fh.write("x,1_1.23,0.5,0.5,0.5\n")
        capsys.readouterr()
        assert run("export", "base", "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [stale(out, "base_history.csv", "train base")]
        assert not (out / "loss_base.csv").exists()

    def test_export_needs_history(self, tmp_path):
        assert run("export", "base", "--out", tmp_path / "none") == 1


SYNTHETIC_FAULT = "--synthetic expects n,d,imbalance (integer,integer,number)"
# a wrong count, a non-integer n and a non-number imbalance
BAD_SYNTHETIC = ["100,4", "10.5,5,0.2", "100,5,abc"]


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
            *(
                (f"synthetic = {text}", f"synthetic: {SYNTHETIC_FAULT}, got {text!r}")
                for text in BAD_SYNTHETIC
            ),
        ],
    )
    def test_value_that_fails_its_cast_names_file_and_line(self, tmp_path, capsys, line, fault):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n{line}\n")
        assert run("prepare", "--synthetic", "100,4,0.4", "--out", tmp_path / "run", "--config", cfg) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}: line 2: {fault}"]

    def test_file_not_utf8_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 3\nout = r\xffun\n")
        assert run("prepare", "--synthetic", "100,4,0.4", "--config", cfg) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {cfg}: line 2: 'utf-8' codec can't decode byte 0xff in position 16: "
            "invalid start byte"
        ]

    @pytest.mark.parametrize("text", BAD_SYNTHETIC)
    def test_bad_synthetic_flag_names_the_flag_and_its_text(self, tmp_path, capsys, text):
        assert run("prepare", "--synthetic", text, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {SYNTHETIC_FAULT}, got {text!r}"]
        assert not (tmp_path / "run").exists()

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
