"""Subcommand CLI wiring the pipeline end to end.

    siamtab prepare --data framingham.csv --out runs/a --seed 7
    siamtab pairs --out runs/a
    siamtab train siamese --out runs/a
    siamtab eval siamese --out runs/a
    siamtab export siamese --out runs/a

Every value resolves as: built-in default < config file (--config, flat
key=value lines keyed by flag name) < command-line flag. Each run prints its
effective config; all randomness derives from the one root seed, which is
echoed into every report. Rerunning a command with identical inputs and seed
rewrites byte-identical artifacts.

run_stage is the one judge of whether a run-directory artifact can be
trusted. <out>/run.json keeps, for each stage's last successful run, the
sha256 of every artifact it read and wrote. Before a stage runs, each file
it reads must hash as its producer last wrote it, and the producer's own
recorded reads must match every file the stage also reads; otherwise the
stage stops with one line naming the stage to re-run.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as dt
from . import pairs as pr
from .nn import CheckpointVersionError, load_checkpoint, require_positive, save_checkpoint
from .siamese import (
    DEFAULT_K_REFS,
    DEFAULT_MARGIN,
    ReferenceBank,
    SiameseModel,
    build_reference_bank,
)
from .train import (
    base_config,
    base_network_spec,
    embed_rows,
    evaluate_classifier,
    evaluate_pairs,
    export_history,
    load_history,
    siamese_config,
    train_base,
    train_siamese,
)

TEST_FRACTION = 0.2  # sample-level held-out fraction written by `prepare`
PAIR_TRAIN_FRACTION = 0.8  # pair-level train share written by `pairs`
_PAIR_COUNTS = (100000, 50000, 50000)  # `pairs`' default (diff, same0, same1)

# Stage tags mixed into the root seed so every pipeline step gets its own
# reproducible stream.
_STAGE_SYNTH = 0
_STAGE_SPLIT = 1
_STAGE_PAIRS = 2
_STAGE_PAIR_SPLIT = 3
_STAGE_TRAIN_BASE = 4
_STAGE_TRAIN_SIAMESE = 5
_STAGE_BANK = 6


def stage_seed(root: int, stage: int) -> int:
    return int(np.random.SeedSequence([root, stage]).generate_state(1)[0])


def _parse_synthetic(text: str) -> tuple[int, int, float]:
    try:
        n, d, imbalance = text.split(",")
        return int(n), int(d), float(imbalance)
    except ValueError:  # not three parts, or a part that does not cast
        raise ValueError(
            f"--synthetic expects n,d,imbalance (integer,integer,number), got {text!r}"
        ) from None


# flag -> (default, cast, --help text). A config file's values go through
# the cast. argparse casts only the int and float flags, so a bad
# --synthetic exits 1 with an `error:` line, not with argparse's usage error.
_FLAGS = {
    "data": (None, str, "input CSV path"),
    "out": ("runs/default", str, "run output directory"),
    # None -> 0; eval reports the checkpoint's seed and reads none
    "seed": (None, int, "root seed for the whole run"),
    "epochs": (None, int, None),  # None -> per-model default
    "batch-size": (None, int, None),
    "lr": (None, float, None),
    "margin": (None, float, None),  # None -> DEFAULT_MARGIN; read by train siamese only
    # None -> train: margin / 2; eval: the checkpoint's threshold
    "threshold": (None, float, "pair-similarity distance threshold"),
    # None -> DEFAULT_K_REFS; read by train siamese only
    "k-refs": (None, int, "reference samples per class"),
    # None -> _PAIR_COUNTS; read by pairs only
    "pairs-diff": (None, int, None),
    "pairs-same0": (None, int, None),
    "pairs-same1": (None, int, None),
    "synthetic": (None, _parse_synthetic, "n,d,imbalance synthetic dataset spec"),
}


@dataclass
class RunConfig:
    data: Path | None
    out: Path
    seed: int | None
    epochs: int | None
    batch_size: int | None
    lr: float | None
    margin: float | None
    threshold: float | None
    k_refs: int | None
    pairs_diff: int | None
    pairs_same0: int | None
    pairs_same1: int | None
    synthetic: tuple[int, int, float] | None

    def echo(self):
        print("effective config:")
        for key in _FLAGS:
            value = getattr(self, key.replace("-", "_"))
            if key == "synthetic" and value is not None:
                value = ",".join(str(v) for v in value)
            print(f"  {key}={'default' if value is None else value}")


def read_config_file(path: Path) -> dict[str, object]:
    """The key=value settings of a config file, each cast to its flag's type;
    a fault, an undecodable byte included, names the file and line."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        # decoded whole, so exc.start counts from the file's first byte
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: {exc}") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FLAGS:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = _FLAGS[key][1](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {key}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {key: default for key, (default, _, _) in _FLAGS.items()}
    if args.config is not None:
        values.update(read_config_file(Path(args.config)))
    for key in _FLAGS:
        cli_value = getattr(args, key.replace("-", "_"))
        if cli_value is not None:
            values[key] = cli_value
    values["data"] = Path(values["data"]) if values["data"] else None
    if not values["out"]:
        # Path("") is the working directory, which no stage should fill
        raise ValueError("out must name a run directory, got an empty value")
    values["out"] = Path(values["out"])
    if isinstance(values["synthetic"], str):
        values["synthetic"] = _parse_synthetic(values["synthetic"])
    for key in ("margin", "threshold"):
        if values[key] is not None:
            require_positive(key, values[key])
    floors = {"seed": 0, "k-refs": 1, "pairs-diff": 0, "pairs-same0": 0, "pairs-same1": 0}
    for key, low in floors.items():
        if values[key] is not None and values[key] < low:
            raise ValueError(f"{key} must be >= {low}, got {values[key]}")
    fields = {key.replace("-", "_"): value for key, value in values.items()}
    return RunConfig(**fields)


def _load_prepared(cfg: RunConfig) -> dt.FeatureTable:
    schema = dt.load_schema_csv(cfg.out / "schema.csv")
    label = [c for c in schema if c.is_label][0]
    ordered = [c for c in schema if not c.is_label] + [label]
    return dt.load_table_csv(cfg.out / "normalized.csv", ordered)


# The part is read 6 characters wide, so a longer cell such as 'trainx'
# cannot be cut down to 'train'.
_SPLITS_DTYPE = np.dtype([("index", np.int64), ("part", "U6")])


def _load_split_indices(cfg: RunConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) row indices from splits.csv, for a table of n rows.

    Every part must be 'train' or 'test', and the indices a permutation of
    the n rows; a fault is a one-line error naming the file.
    """
    path = cfg.out / "splits.csv"
    body = dt.read_grid_csv(path, list(_SPLITS_DTYPE.names), _SPLITS_DTYPE, "splits")
    idx, part = body["index"], body["part"]
    in_train = part == "train"
    bad_part = ~in_train & (part != "test")
    if bad_part.any():
        got = str(part[bad_part][0])
        raise ValueError(f"{path}: part must be 'train' or 'test', got {got!r}")
    if not np.array_equal(np.sort(idx), np.arange(n)):
        raise ValueError(f"{path}: the indices must list each of the {n} table rows once")
    return idx[in_train], idx[~in_train]


def _load_pairs(cfg: RunConfig, ft: dt.FeatureTable, part: str) -> pr.PairSet:
    path = cfg.out / f"pairs_{part}.csv"
    ps = pr.load_pairs_csv(path, ft)
    if len(ps) == 0:
        raise ValueError(f"{path} holds no pairs; re-run siamtab pairs with larger counts")
    return ps


def cmd_prepare(cfg: RunConfig) -> int:
    if cfg.synthetic is None and cfg.data is None:
        raise ValueError("prepare needs --data or --synthetic")
    if cfg.synthetic is not None and cfg.data is not None:
        raise ValueError("prepare takes --data or --synthetic, not both")
    cfg.out.mkdir(parents=True, exist_ok=True)
    seed = 0 if cfg.seed is None else cfg.seed

    if cfg.synthetic is not None:
        n, d, imbalance = cfg.synthetic
        ft = dt.synth_generate(n, d, imbalance, stage_seed(seed, _STAGE_SYNTH))
        schema = dt.synthetic_schema(d)
        missing = {c.name: 0 for c in schema}
        source = f"synthetic n={n},d={d},imbalance={imbalance}"
    else:
        schema = dt.framingham_schema()
        raw = dt.load_csv(cfg.data, schema)
        missing = raw.missing_counts()
        ft = dt.to_features(dt.impute(raw))
        source = str(cfg.data)

    stats = dt.fit_norm(ft)
    normed = dt.apply_norm(ft, stats)
    train_idx, test_idx = dt.stratified_split_indices(
        normed.labels, TEST_FRACTION, stage_seed(seed, _STAGE_SPLIT)
    )

    label_name = [c.name for c in schema if c.is_label][0]
    dt.save_schema_csv(schema, cfg.out / "schema.csv")
    dt.save_table_csv(normed, cfg.out / "normalized.csv", label_name=label_name)
    dt.save_norm_stats_csv(stats, normed.schema, cfg.out / "norm_stats.csv")
    parts = np.empty(normed.n, dtype=object)
    parts[train_idx] = "train"
    parts[test_idx] = "test"
    with open(cfg.out / "splits.csv", "w", newline="\n") as fh:
        fh.write("index,part\n" + "".join(f"{i},{part}\n" for i, part in enumerate(parts)))

    lines = [
        "data report",
        f"source: {source}",
        f"seed: {seed}",
        f"rows: {normed.n}",
        f"columns: {len(schema)}",
        f"class 0: {int((normed.labels == 0).sum())}",
        f"class 1: {int((normed.labels == 1).sum())}",
        "missing values per column:",
    ]
    lines += [f"  {name}: {count}" for name, count in missing.items()]
    lines += [f"train rows: {train_idx.size}", f"test rows: {test_idx.size}"]
    report = "\n".join(lines) + "\n"
    (cfg.out / "report.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_pairs(cfg: RunConfig) -> int:
    ft = _load_prepared(cfg)
    seed = 0 if cfg.seed is None else cfg.seed
    chosen = (cfg.pairs_diff, cfg.pairs_same0, cfg.pairs_same1)
    diff, same0, same1 = (d if c is None else c for c, d in zip(chosen, _PAIR_COUNTS))
    ps = pr.generate_pairs(ft, diff, same0, same1, stage_seed(seed, _STAGE_PAIRS))
    train_ps, test_ps = pr.split_pairs(ps, PAIR_TRAIN_FRACTION, stage_seed(seed, _STAGE_PAIR_SPLIT))
    pr.save_pairs_csv(train_ps, cfg.out / "pairs_train.csv")
    pr.save_pairs_csv(test_ps, cfg.out / "pairs_test.csv")
    print(
        f"pairs: {len(ps)} total (diff={diff}, same0={same0}, same1={same1}) "
        f"-> train={len(train_ps)}, test={len(test_ps)}"
    )
    return 0


def cmd_train(cfg: RunConfig, which: str) -> int:
    ft = _load_prepared(cfg)
    train_idx, _ = _load_split_indices(cfg, ft.n)
    train_ft = dt.take_rows(ft, train_idx)
    chosen = {"epochs": cfg.epochs, "batch_size": cfg.batch_size, "learning_rate": cfg.lr}
    overrides = {key: value for key, value in chosen.items() if value is not None}
    seed = 0 if cfg.seed is None else cfg.seed

    if which == "base":
        tc = base_config(seed=stage_seed(seed, _STAGE_TRAIN_BASE), **overrides)
        params, history = train_base(tc, train_ft, progress=print)
        save_checkpoint(
            cfg.out / "base_model.npz",
            base_network_spec(train_ft.d),
            params,
            extra={"kind": "base", "seed": seed},
        )
        export_history(history, cfg.out / "base_history.csv")
    else:
        pairs_train = _load_pairs(cfg, ft, "train")
        tc = siamese_config(seed=stage_seed(seed, _STAGE_TRAIN_SIAMESE), **overrides)
        # The bank draws from its own stage stream, so building it first
        # changes no model; a k the training split cannot fill fails before
        # any epoch runs.
        k = DEFAULT_K_REFS if cfg.k_refs is None else cfg.k_refs
        bank = build_reference_bank(train_ft, k, stage_seed(seed, _STAGE_BANK))
        margin = DEFAULT_MARGIN if cfg.margin is None else cfg.margin
        model, history = train_siamese(
            tc, pairs_train, margin=margin, pair_threshold=cfg.threshold, progress=print
        )
        save_checkpoint(
            cfg.out / "siamese_model.npz",
            model.spec,
            model.params,
            extra={
                "kind": "siamese",
                "seed": seed,
                "margin": model.margin,
                "pair_threshold": model.pair_threshold,
            },
            arrays={"refs0": bank.refs0, "refs1": bank.refs1},
        )
        export_history(history, cfg.out / "siamese_history.csv")
    return 0


def _write_report(cfg: RunConfig, which: str, record: list[tuple]):
    """Write eval_<which>.kv and eval_<which>.txt from one record of (kv key,
    kv value, text line) entries, in its order, and print the text. A None
    key leaves an entry out of the kv file, a None line out of the text."""
    text = "".join(f"{line}\n" for _, _, line in record if line is not None)
    (cfg.out / f"eval_{which}.txt").write_text(text)
    with open(cfg.out / f"eval_{which}.kv", "w", newline="\n") as fh:
        fh.write("".join(f"{key}={value}\n" for key, value, _ in record if key is not None))
    print(text, end="")


def _load_model(cfg: RunConfig, which: str, ft: dt.FeatureTable):
    """Load `<which>_model.npz` as (spec, params, extra, bank), refusing
    first a checkpoint of another version (version 1 named no dtype) with
    the stage that rewrites it, then a network that does not take ft's
    feature columns, then a checkpoint of the other kind, and last one
    without an entry that eval reads, whose seed is not a finite number or
    whose margin or pair threshold is not a finite positive one. The bank
    is a siamese checkpoint's reference bank, None for base."""
    path = cfg.out / f"{which}_model.npz"
    try:
        spec, params, extra, arrays = load_checkpoint(path)
    except CheckpointVersionError as exc:
        raise ValueError(f"{exc}; re-run siamtab train {which}") from None
    if spec.in_size != ft.d:
        raise ValueError(
            f"{path}: network takes {spec.in_size} inputs, the table has {ft.d} feature "
            f"columns; re-run siamtab train {which}"
        )
    if extra.get("kind") != which:
        raise ValueError(f"{path}: checkpoint kind is {extra.get('kind')!r}, expected {which!r}")
    for key in ("seed",) if which == "base" else ("seed", "margin", "pair_threshold"):
        if key not in extra:
            raise ValueError(f"{path}: checkpoint has no extra entry {key!r}")
        value = extra[key]
        # type(), not isinstance(): a JSON true is a bool, which is an int;
        # and a seed may be an int too large for a float
        if not (type(value) is int or type(value) is float and math.isfinite(value)):
            raise ValueError(
                f"{path}: checkpoint extra entry {key!r} is not a finite number: {value!r}"
            )
        if key != "seed" and value <= 0:
            raise ValueError(f"{path}: checkpoint extra entry {key!r} is not positive: {value!r}")
    if which == "base":
        return spec, params, extra, None
    return spec, params, extra, _load_bank(path, spec.in_size, arrays)


def _load_bank(path: Path, in_size: int, arrays: dict[str, np.ndarray]) -> ReferenceBank:
    """A checkpoint's reference bank, refused unless it is in_size wide and
    every value is finite; ReferenceBank checks its shape."""
    for name in ("refs0", "refs1"):
        if name not in arrays:
            raise ValueError(f"{path}: checkpoint has no array {name}")
    try:
        bank = ReferenceBank(arrays["refs0"], arrays["refs1"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if bank.refs0.shape[1] != in_size:
        raise ValueError(
            f"{path}: reference banks are {bank.refs0.shape[1]} wide, the network takes {in_size}"
        )
    for name, refs in (("refs0", bank.refs0), ("refs1", bank.refs1)):
        if not np.isfinite(refs).all():
            raise ValueError(f"{path}: reference bank {name} contains non-finite values")
    return bank


def cmd_eval(cfg: RunConfig, which: str) -> int:
    ft = _load_prepared(cfg)
    _, test_idx = _load_split_indices(cfg, ft.n)
    test_ft = dt.take_rows(ft, test_idx)

    spec, params, extra, bank = _load_model(cfg, which, ft)
    seed = ("seed", str(extra["seed"]), f"seed: {extra['seed']}")
    if which == "base":
        report = evaluate_classifier((spec, params), test_ft)
        record = [
            ("report", "base", "evaluation: base network (held-out samples)"),
            seed,
            ("samples", str(test_ft.n), f"samples: {test_ft.n}"),
            *report.record(),
        ]
    else:
        threshold = extra["pair_threshold"] if cfg.threshold is None else cfg.threshold
        model = SiameseModel(spec, params, margin=extra["margin"], pair_threshold=threshold)
        pairs_test = _load_pairs(cfg, ft, "test")
        vectors, slot = embed_rows(model, ft.features, pairs_test.left, pairs_test.right, test_idx)
        pair_report = evaluate_pairs(model, pairs_test, (vectors, slot))
        sample_report = evaluate_classifier(model, test_ft, bank, (vectors, slot[test_idx]))
        record = [
            ("report", "siamese", "evaluation: siamese network"),
            seed,
            ("pair_threshold", repr(threshold), f"pair threshold: {threshold}"),
            ("pairs", str(len(pairs_test)), None),
            ("samples", str(test_ft.n), None),
            (None, None, ""),
            (None, None, f"pair-level (held-out pairs, n={len(pairs_test)}, similar = positive):"),
            *pair_report.record("pair_"),
            (None, None, ""),
            (None, None, f"sample-level (held-out samples via reference bank, n={test_ft.n}):"),
            *sample_report.record("sample_"),
        ]
    _write_report(cfg, which, record)
    return 0


def cmd_export(cfg: RunConfig, which: str) -> int:
    history = load_history(cfg.out / f"{which}_history.csv")
    acc_path = cfg.out / f"accuracy_{which}.csv"
    loss_path = cfg.out / f"loss_{which}.csv"
    with open(acc_path, "w", newline="\n") as fh:
        fh.write("epoch,train_acc,val_acc\n")
        for i in range(len(history)):
            fh.write(f"{i + 1},{history.train_acc[i]!r},{history.val_acc[i]!r}\n")
    with open(loss_path, "w", newline="\n") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for i in range(len(history)):
            fh.write(f"{i + 1},{history.train_loss[i]!r},{history.val_loss[i]!r}\n")
    print(f"wrote {acc_path} and {loss_path}")
    return 0


# stage -> (function, artifacts it reads, artifacts it writes). Stages read
# the table from normalized.npz; normalized.csv is its copy for people, and
# no stage reads it. run_stage checks each read and records every read and
# write in run.json, so this table is also the manifest's schema.
_TABLE = ("schema.csv", "normalized.npz")
_SPLIT = _TABLE + ("splits.csv",)
STAGES = {
    "prepare": (cmd_prepare, (), _SPLIT + ("normalized.csv", "norm_stats.csv", "report.txt")),
    "pairs": (cmd_pairs, _TABLE, ("pairs_train.csv", "pairs_test.csv")),
    "train base": (cmd_train, _SPLIT, ("base_model.npz", "base_history.csv")),
    "train siamese": (
        cmd_train, _SPLIT + ("pairs_train.csv",), ("siamese_model.npz", "siamese_history.csv")
    ),
    "eval base": (cmd_eval, _SPLIT + ("base_model.npz",), ("eval_base.txt", "eval_base.kv")),
    "eval siamese": (
        cmd_eval,
        _SPLIT + ("siamese_model.npz", "pairs_test.csv"),
        ("eval_siamese.txt", "eval_siamese.kv"),
    ),
    "export base": (cmd_export, ("base_history.csv",), ("accuracy_base.csv", "loss_base.csv")),
    "export siamese": (
        cmd_export, ("siamese_history.csv",), ("accuracy_siamese.csv", "loss_siamese.csv")
    ),
}
MANIFEST = "run.json"
MANIFEST_LOCK = "run.json.lock"  # held while a stage records itself


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _read_manifest(out: Path) -> dict | None:
    """run.json as {stage: {"reads": {...}, "writes": {...}}}, or None when
    it is missing or of another shape."""
    try:
        manifest = json.loads((out / MANIFEST).read_text())
        if all(isinstance(e[k], dict) for e in manifest.values() for k in ("reads", "writes")):
            return manifest
    except (OSError, ValueError, AttributeError, TypeError, KeyError):
        pass
    return None


def run_stage(name: str, cfg: RunConfig) -> int:
    """Run a stage of STAGES on artifacts it can trust, then record it in
    run.json.

    A missing read is an error naming the stage that writes it. Then, read
    by read: each must hash as its producer last wrote it (a hand edit, a
    cut file, a producer that failed midway), and the producer's recorded
    reads must match this stage's reads where both read a file. Only
    `prepare`, which reads no artifact, runs without a run.json, and starts
    one. Once the stage returns 0, its entry is replaced (_record); the checks
    before it read the manifest without the lock.
    """
    func, reads, writes = STAGES[name]

    def producer(read):
        return next(stage for stage, (_, _, made) in STAGES.items() if read in made)

    for read in reads:
        if not (cfg.out / read).exists():
            raise ValueError(
                f"missing artifact {cfg.out / read}; run the earlier stages first "
                f"(siamtab {producer(read)})"
            )
    manifest = _read_manifest(cfg.out)
    if manifest is None and reads:
        raise ValueError(f"{cfg.out / MANIFEST} is missing or unreadable; re-run siamtab prepare")
    manifest = manifest or {}
    digests = {read: _sha256(cfg.out / read) for read in reads}
    for read in reads:
        made_by = producer(read)
        entry = manifest.get(made_by, {"reads": {}, "writes": {}})
        if entry["writes"].get(read) != digests[read]:
            raise ValueError(
                f"{cfg.out / read} does not match what siamtab {made_by} last wrote; "
                f"re-run siamtab {made_by}"
            )
        for source in reads:
            if entry["reads"].get(source, digests[source]) != digests[source]:
                raise ValueError(
                    f"{cfg.out / read} was made from another {source}; re-run siamtab {made_by}"
                )
    code = func(cfg, *name.split()[1:])
    if code == 0:
        _record(cfg.out, name, digests, {w: _sha256(cfg.out / w) for w in writes})
    return code


def _record(out: Path, name: str, reads: dict[str, str], writes: dict[str, str]):
    """Set stage `name`'s entry in run.json, keeping every other entry as
    the file holds it now: another stage may have recorded itself while
    this one ran. Under an exclusive flock on run.json.lock, the manifest is
    read again, then written to this process's own temp file and moved into
    place with os.replace."""
    with open(out / MANIFEST_LOCK, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        manifest = _read_manifest(out) or {}
        manifest[name] = {"reads": reads, "writes": writes}
        tmp = out / f"{MANIFEST}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, out / MANIFEST)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parse_args leaves it as it
    was)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value config file")
    for flag, (_, cast, text) in _FLAGS.items():
        shared.add_argument(f"--{flag}", type=cast if cast in (int, float) else None, help=text)

    parser = argparse.ArgumentParser(prog="siamtab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in dict.fromkeys(name.split()[0] for name in STAGES):
        which = [name.split()[1] for name in STAGES if name.startswith(f"{command} ")]
        p_command = sub.add_parser(command, parents=[shared])
        if which:
            p_command.add_argument("which", choices=which)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        cfg.echo()
        return run_stage(f"{args.command} {args.which}" if "which" in args else args.command, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
