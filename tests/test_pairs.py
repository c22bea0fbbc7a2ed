import warnings

import numpy as np
import pytest

from oracles import (
    generate_pairs_parts,
    load_pairs_csv_rows,
    pair_counts,
    save_pairs_csv_rows,
)
from siamtab import pairs
from siamtab.data import FeatureTable, synth_generate
from siamtab.pairs import (
    PairSet,
    generate_pairs,
    load_pairs_csv,
    save_pairs_csv,
    split_by_label,
    split_pairs,
)


def small_table(labels):
    labels = np.asarray(labels)
    rng = np.random.default_rng(99)
    return FeatureTable(rng.normal(size=(labels.size, 3)), labels)


class TestSplitByLabel:
    def test_partitions_as_sets(self):
        ft = small_table([0, 1, 0])
        idx0, idx1 = split_by_label(ft, seed=0)
        assert set(idx0) == {0, 2}
        assert set(idx1) == {1}

    def test_empty_table(self):
        ft = FeatureTable(np.empty((0, 3)), np.empty(0, dtype=np.int64))
        idx0, idx1 = split_by_label(ft, seed=0)
        assert idx0.size == 0 and idx1.size == 0

    def test_shuffle_deterministic(self):
        ft = small_table([0] * 50 + [1] * 50)
        a0, a1 = split_by_label(ft, seed=4)
        b0, b1 = split_by_label(ft, seed=4)
        assert np.array_equal(a0, b0) and np.array_equal(a1, b1)
        c0, _ = split_by_label(ft, seed=5)
        assert not np.array_equal(a0, c0)


class TestGeneratePairs:
    def test_exact_counts(self):
        ft = small_table([0] * 10 + [1] * 10)
        ps = generate_pairs(ft, 40, 20, 20, seed=1)
        assert len(ps) == 80
        assert pair_counts(ft.labels, ps.left, ps.similar) == (40, 20, 20)

    def test_empty_request(self):
        ft = small_table([0, 1])
        ps = generate_pairs(ft, 0, 0, 0, seed=1)
        assert len(ps) == 0

    def test_flags_match_labels_exhaustively(self):
        # brute-force label comparison over every emitted pair
        ft = small_table([0, 1, 0, 1, 0])
        ps = generate_pairs(ft, 4, 2, 2, seed=2)
        for left, right, similar in zip(ps.left, ps.right, ps.similar):
            assert similar == (ft.labels[left] == ft.labels[right])

    def test_no_self_pairs(self):
        ft = small_table([0] * 3 + [1] * 3)
        ps = generate_pairs(ft, 0, 5000, 5000, seed=3)
        assert np.all(ps.left != ps.right)

    def test_cross_class_pairs_really_cross(self):
        ft = small_table([0] * 4 + [1] * 4)
        ps = generate_pairs(ft, 1000, 0, 0, seed=4)
        assert np.all(ft.labels[ps.left] != ft.labels[ps.right])

    def test_similar_fraction_exact(self):
        ft = small_table([0] * 6 + [1] * 6)
        ps = generate_pairs(ft, 30, 10, 20, seed=5)
        assert float(ps.similar.mean()) == 30 / 60

    def test_deterministic_byte_for_byte(self, tmp_path):
        ft = small_table([0] * 8 + [1] * 8)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_pairs_csv(generate_pairs(ft, 50, 25, 25, seed=6), p1)
        save_pairs_csv(generate_pairs(ft, 50, 25, 25, seed=6), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_class_too_small_for_same_pairs(self):
        ft = small_table([0, 1, 1])
        with pytest.raises(ValueError, match="class 0 needs"):
            generate_pairs(ft, 0, 1, 0, seed=0)

    def test_diff_needs_both_classes(self):
        ft = small_table([0, 0, 0])
        with pytest.raises(ValueError, match="per class"):
            generate_pairs(ft, 1, 0, 0, seed=0)

    def test_negative_count_rejected(self):
        ft = small_table([0, 1])
        with pytest.raises(ValueError, match=">= 0"):
            generate_pairs(ft, -1, 0, 0, seed=0)

    @pytest.mark.parametrize("seed", [0, 6, 41])
    @pytest.mark.parametrize(
        "counts",
        [(0, 0, 0), (0, 30, 20), (40, 0, 20), (40, 30, 0), (40, 0, 0), (0, 0, 25), (700, 350, 90)],
    )
    def test_matches_the_per_part_generator_bitwise(self, seed, counts):
        # classes of unequal sizes, so every part's draws have their own bound
        ft = small_table([0] * 23 + [1] * 9)
        got = generate_pairs(ft, *counts, seed=seed)
        want = generate_pairs_parts(ft, *counts, seed=seed)
        for name in ("left", "right", "similar"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert pair_counts(ft.labels, got.left, got.similar) == counts


class TestSplitPairs:
    def test_sizes(self):
        ft = small_table([0] * 5 + [1] * 5)
        ps = generate_pairs(ft, 6, 2, 2, seed=7)
        train, test = split_pairs(ps, 0.8, seed=8)
        assert len(train) == 8 and len(test) == 2

    def test_partition_preserves_pairs(self):
        ft = small_table([0] * 5 + [1] * 5)
        ps = generate_pairs(ft, 60, 20, 20, seed=9)
        train, test = split_pairs(ps, 0.75, seed=10)
        combined = sorted(
            list(zip(train.left, train.right, train.similar))
            + list(zip(test.left, test.right, test.similar))
        )
        original = sorted(zip(ps.left, ps.right, ps.similar))
        assert combined == original

    def test_deterministic(self):
        ft = small_table([0] * 5 + [1] * 5)
        ps = generate_pairs(ft, 20, 5, 5, seed=11)
        a = split_pairs(ps, 0.8, seed=12)
        b = split_pairs(ps, 0.8, seed=12)
        assert np.array_equal(a[0].left, b[0].left)
        assert np.array_equal(a[1].right, b[1].right)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5])
    def test_invalid_fraction(self, fraction):
        ft = small_table([0, 1, 0, 1])
        ps = generate_pairs(ft, 4, 0, 0, seed=0)
        with pytest.raises(ValueError, match="fraction"):
            split_pairs(ps, fraction, seed=0)


class TestPairSetContainer:
    def test_index_bounds_checked(self):
        ft = small_table([0, 1])
        with pytest.raises(ValueError, match="out of range"):
            PairSet(ft, np.array([0]), np.array([5]), np.array([False]))



class TestPairCsv:
    def test_round_trip(self, tmp_path):
        ft = synth_generate(40, 3, 0.4, seed=16)
        ps = generate_pairs(ft, 100, 30, 30, seed=17)
        path = tmp_path / "pairs.csv"
        save_pairs_csv(ps, path)
        back = load_pairs_csv(path, ft)
        assert np.array_equal(back.left, ps.left)
        assert np.array_equal(back.right, ps.right)
        assert np.array_equal(back.similar, ps.similar)
        assert pair_counts(ft.labels, back.left, back.similar) == (100, 30, 30)

    def test_mismatched_table_detected(self, tmp_path):
        ft = synth_generate(40, 3, 0.4, seed=18)
        ps = generate_pairs(ft, 50, 10, 10, seed=19)
        path = tmp_path / "pairs.csv"
        save_pairs_csv(ps, path)
        shuffled = np.random.default_rng(20).permutation(ft.labels)
        other = FeatureTable(ft.features, shuffled, ft.schema)
        with pytest.raises(ValueError, match="do not match"):
            load_pairs_csv(path, other)

    @pytest.mark.parametrize("chunk", [7, pairs._WRITE_CHUNK])
    @pytest.mark.parametrize("counts", [(0, 0, 0), (3, 2, 2), (100, 30, 30)])
    def test_bytes_match_per_row_reference(self, tmp_path, monkeypatch, chunk, counts):
        monkeypatch.setattr(pairs, "_WRITE_CHUNK", chunk)
        ft = synth_generate(40, 3, 0.4, seed=21)
        ps = generate_pairs(ft, *counts, seed=22)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_pairs_csv(ps, got)
        save_pairs_csv_rows(ps, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("chunk", [1, 7, pairs._WRITE_CHUNK])
    @pytest.mark.parametrize(
        "size", ["digit_boundaries", "one_digit", "all_zero", "one_zero_pair", "empty"]
    )
    def test_bytes_match_per_row_reference_at_digit_boundaries(
        self, tmp_path, monkeypatch, chunk, size
    ):
        # indices whose digit count changes, up to 5 digits, with both flags;
        # one_digit and all_zero write from one-digit tables (largest index 9, 0)
        monkeypatch.setattr(pairs, "_WRITE_CHUNK", chunk)
        ft = FeatureTable(np.zeros((10_001, 1)), np.zeros(10_001, dtype=np.int64))
        edges = np.array([0, 9, 10, 99, 100, 999, 1000, 9999, 10_000])
        if size == "digit_boundaries":
            left, right = (a.ravel() for a in np.meshgrid(edges, edges[::-1]))
        elif size == "one_digit":
            left, right = (a.ravel() for a in np.meshgrid(np.arange(10), np.arange(9, -1, -1)))
        else:
            n = {"all_zero": 12, "one_zero_pair": 1, "empty": 0}[size]
            left = right = np.zeros(n, dtype=np.int64)
        similar = np.arange(left.size) % 3 == 1
        ps = PairSet(ft, left, right, similar)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_pairs_csv(ps, got)
        save_pairs_csv_rows(ps, want)
        assert got.read_bytes() == want.read_bytes()

    def test_negative_index_rejected_by_the_writer(self, tmp_path):
        # the digit table would wrap -1 round to its last row
        ps = generate_pairs(small_table([0, 1, 0, 1]), 3, 1, 1, seed=27)
        ps.right[2] = -1
        with pytest.raises(ValueError, match="negative pair index -1"):
            save_pairs_csv(ps, tmp_path / "pairs.csv")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_load_matches_per_row_reference(self, tmp_path, newline):
        ft = synth_generate(40, 3, 0.4, seed=23)
        ps = generate_pairs(ft, 100, 30, 30, seed=24)
        path = tmp_path / "pairs.csv"
        save_pairs_csv(ps, path)
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        back = load_pairs_csv(path, ft)
        for got, want in zip((back.left, back.right, back.similar), load_pairs_csv_rows(path)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("trailer", ["", "\n\n"])
    def test_header_only_file_is_an_empty_set_without_warning(self, tmp_path, trailer):
        ft = synth_generate(40, 3, 0.4, seed=25)
        path = tmp_path / "pairs.csv"
        save_pairs_csv(generate_pairs(ft, 0, 0, 0, seed=26), path)
        with open(path, "a") as fh:
            fh.write(trailer)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_pairs_csv(path, ft)
        assert len(back) == 0 and pair_counts(ft.labels, back.left, back.similar) == (0, 0, 0)

    @pytest.mark.parametrize(
        "rows,match",
        [
            ("0,1,0\n1,2\n", "malformed pair row: "),  # one short row
            ("1,2\n0,2\n", "malformed pair row: expected 3 cells per row"),  # every row short
            ("0,1,0\n\n1,2,0,0\n", "malformed pair row: "),  # one long row
            ("0,1,0\n1,2,x\n", "malformed pair row: .*'x'"),
            ("0,1,0\n\n1,2.5,0\n", "malformed pair row: .*'2.5'"),
            # only an empty line is no row; a line of spaces is a malformed one
            ("   \n", "malformed pair row: "),
            ("0,1,0\n1,99999,0\n", "pair index out of range for a table of 3 rows"),
            ("0,1,0\n0,1,0\n-1,2,0\n", "pair index out of range for a table of 3 rows"),
            # an empty line is no row, before a bad row as anywhere else
            ("0,1,0\n\n1,9,0\n", "pair index out of range for a table of 3 rows"),
            # a same-class pair, so a flag read as "not 0" would pass the label audit
            ("0,1,0\n0,2,-1\n", "a similarity flag is not 0 or 1"),
            ("0,1,0\n0,2,7\n", "a similarity flag is not 0 or 1"),
            # the flags are checked before the indices
            ("0,9,7\n", "a similarity flag is not 0 or 1"),
            # whichever fault comes first in file order
            ("0,9,0\n0,1,0\n0,1,0\n0,2,7\n", "a similarity flag is not 0 or 1"),
            ("0,2,7\n0,1,0\n0,1,0\n0,9,0\n", "a similarity flag is not 0 or 1"),
        ],
    )
    def test_malformed_rows_rejected_before_the_label_audit(self, tmp_path, rows, match):
        ft = small_table([0, 1, 0])
        path = tmp_path / "pairs.csv"
        path.write_text("left_index,right_index,similar\n" + rows)
        with pytest.raises(ValueError, match=match) as err:
            load_pairs_csv(path, ft)
        assert str(err.value).startswith(f"{path}: ")

    def test_not_a_pair_file(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("a,b,c\n0,1,0\n")
        with pytest.raises(ValueError, match="not a pair file"):
            load_pairs_csv(path, small_table([0, 1]))
