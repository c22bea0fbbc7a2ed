import csv
import io
import re
import warnings

import numpy as np
import pytest

from oracles import assert_text_copy_is_the_grid, load_csv_cells, save_table_csv_rows
from siamtab import data
from siamtab.data import (
    CONTINUOUS,
    NOMINAL,
    STD_FLOOR,
    ColumnSpec,
    FeatureTable,
    RawTable,
    apply_norm,
    fit_norm,
    framingham_schema,
    impute,
    load_csv,
    load_schema_csv,
    load_table_csv,
    read_grid_csv,
    save_norm_stats_csv,
    save_schema_csv,
    save_table_csv,
    stratified_split,
    stratified_split_indices,
    synth_generate,
    synthetic_schema,
    to_features,
)

SCHEMA3 = [
    ColumnSpec("a", CONTINUOUS),
    ColumnSpec("b", NOMINAL),
    ColumnSpec("y", NOMINAL, is_label=True),
]


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_with_missing(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1.5,0,1\n,1,0\nNA,0,1\n")
        table = load_csv(path, SCHEMA3)
        assert table.n_rows == 3
        assert table.missing_counts() == {"a": 2, "b": 0, "y": 0}
        assert table.cells[0, 0] == 1.5

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, "a,wrong,y\n1,0,1\n")
        with pytest.raises(ValueError, match="header mismatch"):
            load_csv(path, SCHEMA3)

    def test_empty_table(self, tmp_path):
        path = write(tmp_path, "a,b,y\n")
        with pytest.raises(ValueError, match="empty table"):
            load_csv(path, SCHEMA3)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "a,b,y\noops,0,1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path, SCHEMA3)

    def test_missing_label(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,0,NA\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path, SCHEMA3)

    def test_label_not_binary(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,0,2\n")
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            load_csv(path, SCHEMA3)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,0\n")
        with pytest.raises(ValueError, match="expected 3 cells"):
            load_csv(path, SCHEMA3)

    def test_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", SCHEMA3)

    @pytest.mark.parametrize("eol", ["\r\n", "\n", "\r"])
    def test_grid_matches_per_cell_reference_bitwise(self, tmp_path, eol):
        text = (
            'a,b,y\r\n-0.0,5e-324,1\r\n1e308,NA,0\r\n 0.30000000000000004 ,,1\r\n'
            '"-1.5",+2.5e-3,0\r\n-1E+2, NA ,1.0\r\n'
        )
        path = tmp_path / "t.csv"
        path.write_bytes(text.replace("\r\n", eol).encode())
        got = load_csv(path, SCHEMA3).cells
        want = load_csv_cells(path, SCHEMA3)
        assert got.shape == want.shape == (5, 3)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity", "1_5"])
    def test_non_finite_and_underscored_tokens_are_non_numeric(self, tmp_path, token):
        path = write(tmp_path, f"a,b,y\n1,0,1\n{token},0,1\n")
        with pytest.raises(ValueError) as want:
            load_csv_cells(path, SCHEMA3)
        with pytest.raises(ValueError) as got:
            load_csv(path, SCHEMA3)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"line 3: non-numeric value {token!r} in column 'a'")

    @pytest.mark.parametrize(
        "body,line",
        [
            ("1,0,1\noops,0,1\n2,0,1\n1,0\n", 3),  # non-numeric line 3, ragged line 5
            ("1,0,1\n1,0\n2,0,1\noops,0,1\n", 3),  # ragged line 3, non-numeric line 5
            ("1,0,1\n1,0,7\n2,0,1\n,0,NA\n", 3),  # label value line 3, missing label line 5
            ("1,0,1\nx,0,NA\n", 3),  # non-numeric before the missing label on one line
            ("1,0,1\nx,0,2\n", 3),  # each cell before the label's value
            ("1,0,1\n1,y,NA\n", 3),
            ("1,0,1\n1,0,x\n", 3),  # a non-numeric label is reported as such
            ("1,0,1\n1,0,nan\n", 3),
            ("1,0,1\n\n2,0,1\n", 3),  # a blank line is a ragged row
            ("1,0,1\n1,0,1,9\n", 3),  # so is a long one
            ("1,0,1\n2,0,1\n3,0,1\n4,0,NA\n5,0\n6,0,x\n", 5),  # faults in later blocks
            # a cell holding a line break is refused on the line it starts,
            # so the x on line 4 is not named as the third record's line 3
            ('"1\n",0,1\nx,0,1\n', 2),
            ('1,0,1\n1,"0\r\n",1\n', 3),
        ],
    )
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_first_faulty_line_named_as_reference(self, tmp_path, body, line, eol):
        path = tmp_path / "t.csv"
        path.write_bytes(("a,b,y\n" + body).replace("\n", eol).encode())
        with pytest.raises(ValueError) as want:
            load_csv_cells(path, SCHEMA3)
        with pytest.raises(ValueError) as got:
            load_csv(path, SCHEMA3)
        assert str(got.value) == str(want.value)
        assert f"line {line}:" in str(got.value)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_line_break_in_a_header_cell_is_refused_on_line_1(self, tmp_path, eol):
        # read as the header a,b,y, it would make the x on line 4 "line 3"
        path = tmp_path / "t.csv"
        path.write_bytes('"a\n",b,y\n1,2,0\nx,2,0\n'.replace("\n", eol).encode())
        with pytest.raises(ValueError) as want:
            load_csv_cells(path, SCHEMA3)
        with pytest.raises(ValueError) as got:
            load_csv(path, SCHEMA3)
        message = f"{path}: line 1: line break inside header cell {'a' + eol!r}"
        assert str(got.value) == str(want.value) == message

    def test_each_row_of_the_token_matrix_reads_as_the_per_cell_reference(self, tmp_path):
        # one parse with _raw_cell as converter, a rescan when it refuses:
        # every row of these tokens, alone in a file, gives the reference's
        # grid bits or its message
        cells = ["1", "-0.0", " 2.5 ", "1e5", "+1", "", "NA", " NA ", "nan", "inf", "1_5", "x", "N A",
                 "1\n", "1\r\n", "1\r"]
        labels = ["0", "1", "1.0", " 1 ", "-0", "", "NA", "2", "0.5", "x", "nan", "1_0",
                  "1\n", "1\r\n", "1\r"]
        rows = [[a, b, y] for a in cells for b in cells for y in labels]
        rows += [[], ["1"], ["1", "0"], ["1", "0", "1", "0"]]
        path = tmp_path / "t.csv"
        taken = 0
        for row in rows:
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([["a", "b", "y"], row])
            try:
                want = load_csv_cells(path, SCHEMA3)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    load_csv(path, SCHEMA3)
                assert str(got.value) == str(exc), row
            else:
                got = load_csv(path, SCHEMA3).cells
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), row
                taken += 1
        assert taken == 8 * 8 * 5  # finite or missing cells, and a 0/1 label

    def test_missing_cells_read_under_numpy_1x_default_encoding(self, tmp_path, monkeypatch):
        # numpy < 2 hands loadtxt's converter bytes unless encoding=None is
        # passed; then no "" or NA cell would read as missing
        real = np.loadtxt

        def loadtxt(*args, **kwargs):
            kwargs.setdefault("encoding", "bytes")
            return real(*args, **kwargs)

        monkeypatch.setattr(data.np, "loadtxt", loadtxt)
        path = write(tmp_path, 'a,b,y\n1.5,,1\nNA, 0 ,0\n"",NA,1\n')
        got = load_csv(path, SCHEMA3).cells
        want = load_csv_cells(path, SCHEMA3)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isnan(got[:, :2]).sum() == 4


class TestSchemas:
    def test_framingham_schema_kind_counts(self):
        schema = framingham_schema()
        assert len(schema) == 16
        kinds = [c.kind for c in schema]
        assert kinds.count("nominal") == 7
        assert kinds.count("continuous") == 8
        assert kinds.count("discrete") == 1
        labels = [c for c in schema if c.is_label]
        assert len(labels) == 1 and labels[0].name == "TenYearCHD"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ColumnSpec("x", "ordinal")


class TestImpute:
    def test_continuous_median(self):
        # median of {1, 3} is 2 by hand
        table = RawTable(SCHEMA3, [[1, 0, 1], [np.nan, 0, 0], [3, 1, 1]])
        out = impute(table)
        assert out.cells[1, 0] == 2.0

    def test_nominal_mode(self):
        # mode of {0, 0, 1} is 0 by count
        table = RawTable(SCHEMA3, [[1, 0, 1], [1, 0, 0], [1, 1, 1], [1, np.nan, 0]])
        out = impute(table)
        assert out.cells[3, 1] == 0.0

    def test_mode_tie_breaks_to_smallest(self):
        table = RawTable(SCHEMA3, [[1, 2, 1], [1, 7, 0], [1, np.nan, 1]])
        out = impute(table)
        assert out.cells[2, 1] == 2.0

    def test_no_missing_is_identity(self):
        cells = np.array([[1.0, 0, 1], [2.0, 1, 0]])
        out = impute(RawTable(SCHEMA3, cells))
        assert np.array_equal(out.cells, cells)

    def test_entirely_missing_column(self):
        table = RawTable(SCHEMA3, [[np.nan, 0, 1], [np.nan, 1, 0]])
        with pytest.raises(ValueError, match="entirely missing"):
            impute(table)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cells = rng.normal(size=(20, 3))
            cells[rng.random((20, 3)) < 0.3] = np.nan
            cells[:, 2] = rng.integers(0, 2, 20)  # label stays clean
            table = RawTable(SCHEMA3, cells)
            once = impute(table)
            twice = impute(once)
            assert np.array_equal(once.cells, twice.cells)

    def test_non_missing_cells_unchanged(self):
        cells = np.array([[1.0, 0, 1], [np.nan, 1, 0], [3.0, np.nan, 1]])
        out = impute(RawTable(SCHEMA3, cells))
        keep = ~np.isnan(cells)
        assert np.array_equal(out.cells[keep], cells[keep])


class TestToFeatures:
    def test_splits_label(self):
        table = RawTable(SCHEMA3, [[1.0, 0, 1], [2.0, 1, 0]])
        ft = to_features(table)
        assert ft.d == 2
        assert np.array_equal(ft.labels, [1, 0])
        assert [c.name for c in ft.schema] == ["a", "b"]

    def test_single_row(self):
        ft = to_features(RawTable(SCHEMA3, [[1.0, 0, 1]]))
        assert ft.n == 1

    def test_missing_cell_rejected(self):
        table = RawTable(SCHEMA3, [[np.nan, 0, 1]])
        with pytest.raises(ValueError, match="missing"):
            to_features(table)


class TestNormalization:
    def test_mean_and_population_std(self):
        ft = FeatureTable(np.array([[0.0], [2.0]]), np.array([0, 1]))
        stats = fit_norm(ft)
        # population stddev oracle: sqrt(((0-1)^2 + (2-1)^2) / 2) = 1
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0

    def test_constant_column_clamped(self):
        ft = FeatureTable(np.full((3, 1), 5.0), np.array([0, 1, 0]))
        stats = fit_norm(ft)
        assert stats.mean[0] == 5.0
        assert stats.std[0] == STD_FLOOR

    def test_single_row_rejected(self):
        ft = FeatureTable(np.array([[1.0]]), np.array([1]))
        with pytest.raises(ValueError, match="at least 2"):
            fit_norm(ft)

    def test_apply_hand_case(self):
        ft = FeatureTable(np.array([[3.0]]), np.array([1]))
        out = apply_norm(ft, fit_norm(FeatureTable(np.array([[0.0], [2.0]]), np.array([0, 1]))))
        # (3 - 1) / 1 = 2; and with explicit mean 1, std 2: (3-1)/2 = 1
        assert out.features[0, 0] == 2.0
        from siamtab.data import NormStats

        out2 = apply_norm(ft, NormStats(np.array([1.0]), np.array([2.0])))
        assert out2.features[0, 0] == 1.0

    def test_identity_stats(self):
        from siamtab.data import NormStats

        rng = np.random.default_rng(1)
        ft = FeatureTable(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))
        out = apply_norm(ft, NormStats(np.zeros(3), np.ones(3)))
        assert np.array_equal(out.features, ft.features)

    def test_dimension_mismatch(self):
        from siamtab.data import NormStats

        ft = FeatureTable(np.ones((2, 3)), np.array([0, 1]))
        with pytest.raises(ValueError, match="columns"):
            apply_norm(ft, NormStats(np.zeros(2), np.ones(2)))

    def test_fit_then_apply_standardizes(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            ft = FeatureTable(
                rng.normal(loc=trial, scale=trial + 0.5, size=(200, 4)),
                rng.integers(0, 2, 200),
            )
            out = apply_norm(ft, fit_norm(ft))
            assert np.all(np.abs(out.features.mean(axis=0)) < 1e-9)
            assert np.all(np.abs(out.features.std(axis=0) - 1.0) < 1e-6)

    def test_labels_untouched(self):
        ft = FeatureTable(np.array([[1.0], [2.0]]), np.array([1, 0]))
        out = apply_norm(ft, fit_norm(ft))
        assert np.array_equal(out.labels, ft.labels)


class TestStratifiedSplit:
    def test_counting_oracle(self):
        labels = np.array([0] * 80 + [1] * 20)
        rng = np.random.default_rng(3)
        ft = FeatureTable(rng.normal(size=(100, 2)), labels)
        rest, held = stratified_split(ft, 0.25, seed=7)
        assert int((held.labels == 0).sum()) == 20
        assert int((held.labels == 1).sum()) == 5
        assert rest.n + held.n == 100

    def test_partition_no_loss_no_dup(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(10, 200))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            rest, held = stratified_split_indices(labels, 0.3, seed=trial)
            combined = np.sort(np.concatenate([rest, held]))
            assert np.array_equal(combined, np.arange(n))
            for c in (0, 1):
                n_c = int((labels == c).sum())
                held_c = int((labels[held] == c).sum())
                assert abs(held_c - 0.3 * n_c) <= 1

    def test_deterministic(self):
        labels = np.array([0, 0, 0, 1, 1, 0, 1, 0])
        a = stratified_split_indices(labels, 0.5, seed=9)
        b = stratified_split_indices(labels, 0.5, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_bad_fraction(self):
        ft = FeatureTable(np.ones((4, 1)), np.array([0, 1, 0, 1]))
        for fraction in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="fraction"):
                stratified_split(ft, fraction, seed=0)

    def test_single_class_rejected(self):
        ft = FeatureTable(np.ones((3, 1)), np.array([0, 0, 0]))
        with pytest.raises(ValueError, match="class 1"):
            stratified_split(ft, 0.5, seed=0)


class TestSynthGenerate:
    def test_class_counts(self):
        ft = synth_generate(1000, 5, 0.15, seed=0)
        assert int(ft.labels.sum()) == 150
        assert ft.n == 1000 and ft.d == 5

    def test_deterministic(self):
        a = synth_generate(100, 3, 0.4, seed=12)
        b = synth_generate(100, 3, 0.4, seed=12)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_clusters_have_distinct_means(self):
        ft = synth_generate(4000, 6, 0.5, seed=1)
        m0 = ft.features[ft.labels == 0].mean(axis=0)
        m1 = ft.features[ft.labels == 1].mean(axis=0)
        assert np.linalg.norm(m1 - m0) > 2.0

    @pytest.mark.parametrize("n,d,imb", [(1, 3, 0.5), (10, 0, 0.5), (10, 3, 1.5), (10, 3, 0.0)])
    def test_invalid_arguments(self, n, d, imb):
        with pytest.raises(ValueError):
            synth_generate(n, d, imb, seed=0)


class TestCsvRoundTrips:
    def test_table_round_trip_exact(self, tmp_path):
        ft = synth_generate(50, 4, 0.3, seed=6)
        path = tmp_path / "t.csv"
        save_table_csv(ft, path)
        back = load_table_csv(path, synthetic_schema(4))
        assert np.array_equal(back.features, ft.features)
        assert np.array_equal(back.labels, ft.labels)

    @pytest.mark.parametrize("chunk", [7, 256])
    @pytest.mark.parametrize("order", ["C", "F"])  # apply_norm keeps to_features' F order
    def test_table_bytes_match_per_row_reference(self, tmp_path, monkeypatch, chunk, order):
        monkeypatch.setattr(data, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(3)
        features = rng.normal(size=(23, 4))
        features[0] = [-0.0, 5e-324, 1e308, 0.1 + 0.2]
        features[1] = [1 / 3, -1e-300, 2.0**52 + 1, 123456789.12345678]
        features = np.asarray(features, order=order)
        ft = FeatureTable(features, rng.integers(0, 2, 23), synthetic_schema(4)[:-1])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_table_csv(ft, got, label_name="y")
        save_table_csv_rows(ft, want, label_name="y")
        assert got.read_bytes() == want.read_bytes()
        back = load_table_csv(got, synthetic_schema(4)[:-1] + [ColumnSpec("y", NOMINAL, True)])
        assert np.array_equal(back.features.view(np.int64), features.view(np.int64))

    @pytest.mark.parametrize("chunk", [1, 7, data._CHUNK_ROWS])
    @pytest.mark.parametrize("n", [0, 1, 3, 40])
    @pytest.mark.parametrize("one_class", [False, True])
    def test_repeated_table_bytes_match_per_row_reference(
        self, tmp_path, monkeypatch, chunk, n, one_class
    ):
        # each column's distinct floats are formatted once: zeros of both
        # signs must stay apart within a column and across columns, and so
        # must a value repeated over columns; -2.2250738585072014e-308 is a
        # longest repr
        monkeypatch.setattr(data, "_CHUNK_ROWS", chunk)
        rows = np.array([
            [0.0, -0.0, 0.0, 1.5, -0.0],
            [-0.0, 0.0, 1.5, 1.5, 1.5],
            [5e-324, 1e16, 1e-05, 2.0**52 + 1, -2.2250738585072014e-308],
        ])
        rng = np.random.default_rng(9)
        features = np.vstack([rows, rows[rng.integers(0, 3, 37)]])[:n]
        labels = np.ones(n, dtype=np.int64) if one_class else rng.integers(0, 2, n)
        ft = FeatureTable(features, labels, synthetic_schema(5)[:-1])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_table_csv(ft, got)
        save_table_csv_rows(ft, want)
        assert got.read_bytes() == want.read_bytes()
        if n:
            back = load_table_csv(got, synthetic_schema(5))
            assert np.array_equal(back.features.view(np.int64), features.view(np.int64))
            assert np.array_equal(back.labels, labels)

    def test_header_only_table_bytes_match(self, tmp_path):
        ft = FeatureTable(np.empty((0, 2)), np.empty(0, dtype=np.int64))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_table_csv(ft, got)
        save_table_csv_rows(ft, want)
        assert got.read_bytes() == want.read_bytes() == b"f00,f01,label\n"

    def test_norm_stats_round_trip(self, tmp_path):
        ft = synth_generate(50, 4, 0.3, seed=8)
        stats = fit_norm(ft)
        path = tmp_path / "stats.csv"
        save_norm_stats_csv(stats, ft.schema, path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["column", "mean", "stddev"]
        assert len(rows) == len(stats.mean)
        mean = np.array([float(row[1]) for row in rows])
        std = np.array([float(row[2]) for row in rows])
        assert np.array_equal(mean.view(np.int64), stats.mean.view(np.int64))
        assert np.array_equal(std.view(np.int64), stats.std.view(np.int64))


def fixture_table(seed=3, n=23):
    """A 4-feature table whose first rows hold the values repr must round-trip."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 4))
    features[0] = [-0.0, 5e-324, 1e308, 0.1 + 0.2]
    features[1] = [1 / 3, -1e-300, 2.0**52 + 1, 123456789.12345678]
    return FeatureTable(features, rng.integers(0, 2, n), synthetic_schema(4)[:-1])


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


# Ways a sidecar can be unreadable: (sidecar path, the table's grid) -> None
SIDECAR_DAMAGE = {
    "truncated": lambda side, grid: side.write_bytes(side.read_bytes()[:-200]),
    "not a zip": lambda side, grid: side.write_bytes(b"not a zip archive\n"),
    "an npy file": lambda side, grid: side.write_bytes(npy_bytes(grid)),
    "pickled objects": lambda side, grid: np.savez(side, grid=grid.astype(object)),
    "no grid": lambda side, grid: np.savez(side, table=grid),
}


class TestTableSidecar:
    def test_sidecar_is_the_grid_and_the_csv_its_text_copy(self, tmp_path):
        ft = fixture_table()
        path = tmp_path / "t.csv"
        save_table_csv(ft, path)
        assert_text_copy_is_the_grid(path)
        with np.load(tmp_path / "t.npz", allow_pickle=False) as npz:
            grid = npz["grid"]
        assert grid.dtype == np.float64 and grid.shape == (23, 5)
        assert np.array_equal(grid[:, :4].view(np.int64), ft.features.view(np.int64))
        assert np.array_equal(grid[:, 4], ft.labels)
        got = load_table_csv(path, synthetic_schema(4))
        assert np.array_equal(got.features.view(np.int64), ft.features.view(np.int64))
        assert np.array_equal(got.labels, ft.labels) and got.schema == ft.schema

    def test_label_column_not_last_in_file_order(self, tmp_path):
        # the sidecar's grid is in file order, as the CSV holds it
        path = tmp_path / "t.csv"
        grid = np.array([[-0.0, 1, 5e-324], [1e308, 0, 0.1 + 0.2], [2.0**52 + 1, 1, -1e-300]])
        np.savez(data.table_sidecar(path), grid=grid)
        schema = [ColumnSpec("a", CONTINUOUS), ColumnSpec("y", NOMINAL, True), ColumnSpec("b", CONTINUOUS)]
        got = load_table_csv(path, schema)
        assert got.labels.tolist() == [1, 0, 1]
        assert [c.name for c in got.schema] == ["a", "b"]
        assert np.array_equal(got.features.view(np.int64), grid[:, [0, 2]].view(np.int64))

    @pytest.mark.parametrize(
        "grid,message",
        [
            (np.zeros((3, 4)), "grid is float64 of shape (3, 4), expected float64 of 5 columns"),
            (np.zeros(5), "grid is float64 of shape (5,), expected float64 of 5 columns"),
            (np.zeros((3, 5), np.float32),
             "grid is float32 of shape (3, 5), expected float64 of 5 columns"),
            (np.zeros((0, 5)), "empty table"),
            (np.where(np.eye(3, 5) == 1, np.inf, 0.0), "the table holds a non-finite value"),
            (np.where(np.eye(3, 5) == 1, -np.inf, 0.0), "the table holds a non-finite value"),
            (np.full((3, 5), np.nan), "the table holds a non-finite value"),
            (np.hstack([np.zeros((3, 4)), [[0.0], [2.0], [1.0]]]), "a label is not 0 or 1"),
            (np.hstack([np.zeros((3, 4)), [[0.0], [0.5], [1.0]]]), "a label is not 0 or 1"),
        ],
        ids=["wrong width", "1-D", "float32", "no rows", "inf", "-inf", "nan", "label 2", "label 0.5"],
    )
    def test_whole_grid_checks_name_the_sidecar(self, tmp_path, grid, message):
        path = tmp_path / "t.csv"
        np.savez(data.table_sidecar(path), grid=grid)
        with pytest.raises(ValueError) as err:
            load_table_csv(path, synthetic_schema(4))
        assert str(err.value) == f"{data.table_sidecar(path)}: {message}"

    @pytest.mark.parametrize("damage", list(SIDECAR_DAMAGE))
    def test_unreadable_sidecar_is_a_one_line_error_naming_it(self, tmp_path, damage):
        # the CSV beside it is a text copy, never read in its place
        ft = fixture_table()
        path = tmp_path / "t.csv"
        save_table_csv(ft, path)
        side = data.table_sidecar(path)
        SIDECAR_DAMAGE[damage](side, np.column_stack([ft.features, ft.labels.astype(np.float64)]))
        with pytest.raises(ValueError) as err:
            load_table_csv(path, synthetic_schema(4))
        assert str(err.value).startswith(f"{side}: not a readable table sidecar (")
        assert "\n" not in str(err.value)

    def test_missing_sidecar_is_not_read_around(self, tmp_path):
        path = tmp_path / "t.csv"
        save_table_csv(fixture_table(), path)
        data.table_sidecar(path).unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(data.table_sidecar(path)))):
            load_table_csv(path, synthetic_schema(4))


class TestArtifactRows:
    def test_schema_round_trip(self, tmp_path):
        path = tmp_path / "schema.csv"
        save_schema_csv(SCHEMA3, path)
        assert load_schema_csv(path) == SCHEMA3

    def test_short_schema_row_names_file_and_line(self, tmp_path):
        path = write(tmp_path, "name,kind,is_label\na,continuous,0\nb\n", "schema.csv")
        with pytest.raises(ValueError, match=r"schema\.csv: line 3: expected 3 cells, got 1"):
            load_schema_csv(path)

    def test_bad_schema_cell_names_file_and_line(self, tmp_path):
        path = write(tmp_path, "name,kind,is_label\na,ordinal,0\n", "schema.csv")
        with pytest.raises(ValueError, match=r"schema\.csv: line 2: unknown column kind"):
            load_schema_csv(path)

    @pytest.mark.parametrize("flag", ["7", "-1", "true"])
    def test_is_label_other_than_0_or_1_names_file_and_line(self, tmp_path, flag):
        # -1 on a feature row would otherwise make it a second label
        path = write(tmp_path, f"name,kind,is_label\na,continuous,0\nb,nominal,{flag}\ny,nominal,1\n",
                     "schema.csv")
        with pytest.raises(ValueError) as exc:
            load_schema_csv(path)
        assert str(exc.value) == f"{path}: line 3: is_label must be 0 or 1, got {flag!r}"

    def test_not_a_schema_file(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,0,1\n")
        with pytest.raises(ValueError, match="not a schema file"):
            load_schema_csv(path)

    def test_empty_schema_line_is_no_row(self, tmp_path):
        path = write(tmp_path, "name,kind,is_label\na,continuous,0\n\nb,nominal,0\ny,nominal,1\n")
        assert load_schema_csv(path) == SCHEMA3


class TestReadGridCsv:
    @pytest.mark.parametrize(
        "dtype", [np.int64, [("left", np.int64), ("right", np.int64), ("part", "U6")]]
    )
    def test_integer_cell_read_through_float_is_refused(self, tmp_path, monkeypatch, dtype):
        """numpy < 2 parses an integer cell "1.0" through float under only a
        DeprecationWarning; the cell is refused as on numpy 2."""

        def loadtxt_of_numpy_1(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.zeros((1, 3), dtype=np.int64)

        monkeypatch.setattr(np, "loadtxt", loadtxt_of_numpy_1)
        path = write(tmp_path, "left,right,part\n0,1,0\n1.0,2,0\n")
        with pytest.raises(ValueError) as err:
            read_grid_csv(path, ["left", "right", "part"], dtype, "test")
        assert str(err.value) == (
            f"{path}: malformed test row: loadtxt(): Parsing an integer via a float is deprecated."
        )

    def test_structured_grid_checks_each_field_by_its_dtype(self, tmp_path):
        dtype = [("index", np.int64), ("x", np.float64), ("part", "U6")]
        names = ["index", "x", "part"]
        path = write(tmp_path, "index,x,part\n0,0.5,any cell\n\n1,2,\n")
        grid = read_grid_csv(path, names, dtype, "test")
        assert grid.shape == (2,)
        assert grid["index"].tolist() == [0, 1] and grid["part"].tolist() == ["any ce", ""]
        path.write_text("index,x,part\n0,0.5,a\n1,2_0,b\n")
        with pytest.raises(ValueError, match=r"^.*t\.csv: malformed test row: .*'2_0'"):
            read_grid_csv(path, names, dtype, "test")
        path.write_text("index,x,part\n0,0.5\n")
        with pytest.raises(ValueError, match=r"^.*t\.csv: malformed test row: "):
            read_grid_csv(path, names, dtype, "test")
        path.write_text("index,x,part\n\n")
        assert read_grid_csv(path, names, dtype, "test").shape == (0,)

    @pytest.mark.parametrize("body", ["1,2\n3,4\n", "1,2,3\n4,5\n", "1,2,3\n   \n"])
    def test_rows_of_another_width_are_one_line_errors(self, tmp_path, body):
        path = write(tmp_path, "a,b,c\n" + body)
        with pytest.raises(ValueError, match=r"^.*t\.csv: malformed test row: "):
            read_grid_csv(path, ["a", "b", "c"], np.float64, "test")
