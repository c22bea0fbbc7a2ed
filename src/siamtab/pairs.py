"""Contrastive pair corpus: cross-class and same-class index pairs.

A pair set is index arrays and similarity flags over one table.
Pairs are sampled with replacement across pairs (repeats are fine for the
training objective), but a same-class pair never pairs a row with itself.
The corpus deliberately mixes every source row into both the train and test
pair splits; see the README for why that matters when reading pair-level
accuracy numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FeatureTable, read_grid_csv


@dataclass
class PairSet:
    """Index arrays and similarity flags over one source FeatureTable: pair
    i joins rows left[i] and right[i], similar where their labels agree."""

    source: FeatureTable
    left: np.ndarray  # (m,) int64 row indices
    right: np.ndarray  # (m,) int64 row indices
    similar: np.ndarray  # (m,) bool

    def __post_init__(self):
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.similar = np.asarray(self.similar, dtype=bool)
        m = self.left.shape[0]
        if self.right.shape[0] != m or self.similar.shape[0] != m:
            raise ValueError("pair arrays must have equal length")
        if m and (
            self.left.min() < 0
            or self.right.min() < 0
            or self.left.max() >= self.source.n
            or self.right.max() >= self.source.n
        ):
            raise ValueError("pair index out of range for source table")

    def __len__(self) -> int:
        return self.left.shape[0]


def split_by_label(ft: FeatureTable, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of class-0 and class-1 rows, each shuffled per the seed."""
    rng = np.random.default_rng(seed)
    idx0 = rng.permutation(np.flatnonzero(ft.labels == 0))
    idx1 = rng.permutation(np.flatnonzero(ft.labels == 1))
    return idx0, idx1


def generate_pairs(
    ft: FeatureTable, n_diff: int, n_same0: int, n_same1: int, seed: int
) -> PairSet:
    """Draw exactly the requested pair counts, deterministically per seed.

    Cross-class pairs take their left row from class 0 and right row from
    class 1. Same-class pairs draw two distinct positions from the shuffled
    class index list (an offset draw, so no rejection loop is needed). Each
    part is gathered straight into its slice of the final left/right arrays.
    """
    for name, v in (("n_diff", n_diff), ("n_same0", n_same0), ("n_same1", n_same1)):
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")
    child = np.random.SeedSequence(seed).generate_state(2)
    idx0, idx1 = split_by_label(ft, int(child[0]))
    rng = np.random.default_rng(int(child[1]))

    if n_diff > 0 and (idx0.size == 0 or idx1.size == 0):
        raise ValueError("cross-class pairs need at least one sample per class")
    for c, n_same, idx in ((0, n_same0, idx0), (1, n_same1, idx1)):
        if n_same > 0 and idx.size < 2:
            raise ValueError(f"class {c} needs >= 2 samples for same-class pairs")

    left = np.empty(n_diff + n_same0 + n_same1, dtype=np.int64)
    right = np.empty_like(left)
    # every drawn position is in range: "clip" changes none and skips "raise"'s temporary copy
    if n_diff > 0:
        np.take(idx0, rng.integers(0, idx0.size, n_diff), out=left[:n_diff], mode="clip")
        np.take(idx1, rng.integers(0, idx1.size, n_diff), out=right[:n_diff], mode="clip")
    for start, n_same, idx in ((n_diff, n_same0, idx0), (n_diff + n_same0, n_same1, idx1)):
        if n_same > 0:
            p = rng.integers(0, idx.size, n_same)
            q = rng.integers(0, idx.size - 1, n_same)
            q += p  # (p + 1 + offset) % size, in place
            q += 1
            q %= idx.size
            np.take(idx, p, out=left[start : start + n_same], mode="clip")
            np.take(idx, q, out=right[start : start + n_same], mode="clip")
    similar = np.zeros(left.size, dtype=bool)
    similar[n_diff:] = True
    return PairSet(ft, left, right, similar)


def split_pairs(ps: PairSet, fraction: float, seed: int) -> tuple[PairSet, PairSet]:
    """Shuffle the pair list and split it: round(fraction*N) / remainder."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ps))
    n_first = round(fraction * len(ps))
    return tuple(
        PairSet(ps.source, ps.left[sel], ps.right[sel], ps.similar[sel])
        for sel in (perm[:n_first], perm[n_first:])
    )


_PAIR_HEADER = "left_index,right_index,similar"
_WRITE_CHUNK = 8192  # pair rows save_pairs_csv assembles per write; bounds the bytes held


def _digit_table(hi: int) -> np.ndarray:
    """(hi + 1, len(str(hi))) uint8: row v holds the ASCII digits of v,
    right-aligned, with its unused leading positions 0."""
    nd = len(str(hi))
    values = np.arange(hi + 1)
    table = np.zeros((hi + 1, nd), dtype=np.uint8)
    for k in range(nd):
        place = 10 ** (nd - 1 - k)
        used = values >= place  # a value has a digit at every place up to its own size
        table[used, k] = ord("0") + values[used] // place % 10
    table[0, -1] = ord("0")
    return table


def save_pairs_csv(ps: PairSet, path: str | Path):
    """Write `left_index,right_index,similar` rows, one binary write per
    chunk of rows.

    Each row of a chunk is one fixed-width record: the left index's digits,
    a comma, the right index's digits, a comma, the flag and a newline. The
    digit fields are gathered whole from a table of the digits of every
    index up to the largest one, padded with 0 bytes; one bytes.translate
    then drops the pads, leaving exactly the "%d,%d,%d\\n" text of each pair.
    """
    lo = int(min(ps.left.min(initial=0), ps.right.min(initial=0)))
    if lo < 0:
        raise ValueError(f"negative pair index {lo}")
    hi = int(max(ps.left.max(initial=0), ps.right.max(initial=0)))
    table = _digit_table(hi)
    digits = table.view(np.dtype((np.void, table.shape[1]))).ravel()  # one item per index
    row = np.dtype([("left", digits.dtype), ("comma1", "u1"), ("right", digits.dtype),
                    ("comma2", "u1"), ("flag", "u1"), ("newline", "u1")])
    with open(path, "wb") as fh:
        fh.write(_PAIR_HEADER.encode() + b"\n")
        buf = np.empty(min(len(ps), _WRITE_CHUNK), dtype=row)
        buf["comma1"] = buf["comma2"] = ord(",")
        buf["newline"] = ord("\n")
        for start in range(0, len(ps), _WRITE_CHUNK):
            stop = min(start + _WRITE_CHUNK, len(ps))
            rows = buf[: stop - start]
            # every index is in 0..hi, checked above, so clipping changes none
            np.take(digits, ps.left[start:stop], out=rows["left"], mode="clip")
            np.take(digits, ps.right[start:stop], out=rows["right"], mode="clip")
            rows["flag"] = ps.similar[start:stop] + ord("0")
            fh.write(rows.tobytes().translate(None, b"\0"))


def load_pairs_csv(path: str | Path, ft: FeatureTable) -> PairSet:
    """Read a pair CSV back and re-attach it to its source table.

    The body is parsed in one pass. A similarity flag other than 0 or 1 or
    an index outside the table is a one-line error naming the file; the
    stored similarity flags are then audited against the table labels so
    a mismatched table is caught immediately.
    """
    body = read_grid_csv(path, _PAIR_HEADER.split(","), np.int64, "pair")
    left, right, flags = body.T
    if ((flags != 0) & (flags != 1)).any():
        raise ValueError(f"{path}: a similarity flag is not 0 or 1")
    if ((left < 0) | (left >= ft.n) | (right < 0) | (right >= ft.n)).any():
        raise ValueError(f"{path}: pair index out of range for a table of {ft.n} rows")
    similar = flags != 0
    if not np.array_equal(similar, ft.labels[left] == ft.labels[right]):
        raise ValueError(f"{path}: similarity flags do not match the table labels")
    return PairSet(ft, left, right, similar)
