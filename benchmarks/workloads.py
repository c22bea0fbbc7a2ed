"""Workloads, output checks and metrics of the siamtab benchmark.

Each workload is a chain of real `siamtab` CLI stages, called in-process
through `siamtab.cli.main` on a run directory fed only by the generated
Framingham-shaped CSV. A run sets up SETUPS times (fresh directory, fresh
input, one warm-up pass of every stage; setup_s is their median), then
repeats the timed chain until its time is up. Every stage call and every output check counts as one
attempted operation; a failure is counted and the run goes on.

Why these workloads (each stresses a different layer mix):
  siamese-fast  prepare -> pairs (10k diff + 5k + 5k) -> train siamese at
                batch 64 -> eval siamese -> export. The paper's headline
                model; time goes to nn.forward/backward in train mode through
                the twin branch and to rmsprop_step.
  base-batch16  prepare -> train base at batch 16 -> eval base. Never touches
                pairs or siamese: tiny GEMMs, so per-call overhead and
                adam_step dominate. A twin-only change should not move it.
  eval-full     set-up trains a short siamese checkpoint; the timed chain is
                pairs at the full 100k/50k/50k corpus -> eval siamese on the
                40k held-out pairs: large-chunk inference and pair-CSV I/O.
"""

from __future__ import annotations

import hashlib
import io
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import framingham
from spans import Span, Tracer, layer_totals
from siamtab import cli

FAST_PAIRS = (10000, 5000, 5000)
FULL_PAIRS = (100000, 50000, 50000)
SETUPS = 3

INPUT = "<input>"  # placeholder for the generated CSV in a stage's argv

# Artifacts that a fixed-seed re-run rewrites byte for byte (README).
DETERMINISTIC = (
    "schema.csv", "normalized.csv", "norm_stats.csv", "splits.csv", "report.txt",
    "pairs_train.csv", "pairs_test.csv", "base_model.npz", "siamese_model.npz",
    "base_history.csv", "siamese_history.csv", "eval_base.txt", "eval_base.kv",
    "eval_siamese.txt", "eval_siamese.kv", "accuracy_siamese.csv", "loss_siamese.csv",
)

# Probe duration that defines a normalized second: the SpeedProbe's
# median on the two-core x86_64 machine, with OpenBLAS 0.3.31 on one thread,
# where the benchmark was defined.
PROBE_NOMINAL_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "stage_items_per_norm_s": "1/s",
    "eval_rows_per_norm_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "recall_class1": "ratio",
}

# Spans the traced run reports; cli.<stage> spans wrap each stage call.
LAYERS = (
    "nn.forward.train", "nn.forward.infer", "nn.backward", "nn.rmsprop_step",
    "nn.adam_step", "nn.euclidean_distance", "nn.contrastive_loss", "nn.bce_loss",
    "siamese.pair_forward", "siamese.pair_backward", "siamese.classify_table",
    "train.train_siamese", "train.train_base", "train.evaluate_pairs",
    "train.evaluate_classifier", "pairs.generate_pairs", "pairs.save_pairs_csv",
    "pairs.load_pairs_csv", "data.load_csv", "data.impute", "data.load_table_csv",
    "data.save_table_csv", "cli.prepare", "cli.pairs", "cli.train_siamese",
    "cli.train_base", "cli.eval_siamese", "cli.eval_base", "cli.export",
)
NO_ROWS = ("nn.adam_step", "nn.rmsprop_step")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYERS:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        if name not in NO_ROWS and not name.startswith("cli."):
            units[f"{name}.rows"] = "count"
    units["nn.forward.infer.unique_row_share"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


@dataclass(frozen=True)
class Stage:
    name: str  # timing key; the traced run names its span cli.<name>
    argv: tuple[str, ...]  # CLI arguments before --out and --seed
    outputs: tuple[str, ...]  # artifacts the stage must leave behind
    epochs: int = 0
    pairs: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: tuple[Stage, ...]  # stages only the set-up runs, before the chain
    timed: tuple[Stage, ...]  # the chain each timed pass runs
    items_stage: str  # stage whose throughput is stage_items_per_s


def _prepare() -> Stage:
    outputs = ("schema.csv", "normalized.csv", "norm_stats.csv", "splits.csv", "report.txt")
    return Stage("prepare", ("prepare", "--data", INPUT), outputs)


def _pairs(counts: tuple[int, int, int]) -> Stage:
    argv = ("pairs", "--pairs-diff", str(counts[0]), "--pairs-same0", str(counts[1]),
            "--pairs-same1", str(counts[2]))
    return Stage("pairs", argv, ("pairs_train.csv", "pairs_test.csv"), pairs=counts)


def _train(which: str, epochs: int, batch: int) -> Stage:
    argv = ("train", which, "--epochs", str(epochs), "--batch-size", str(batch))
    return Stage(f"train_{which}", argv, (f"{which}_model.npz", f"{which}_history.csv"),
                 epochs=epochs)


def _eval(which: str) -> Stage:
    return Stage(f"eval_{which}", ("eval", which), (f"eval_{which}.txt", f"eval_{which}.kv"))


def make_workloads(
    siamese_epochs: int = 2,
    base_epochs: int = 5,
    checkpoint_epochs: int = 1,
    fast: tuple[int, int, int] = FAST_PAIRS,
    full: tuple[int, int, int] = FULL_PAIRS,
) -> dict[str, Workload]:
    """The benchmark's workloads; tests pass smaller sizes."""
    export = Stage("export", ("export", "siamese"), ("accuracy_siamese.csv", "loss_siamese.csv"))
    workloads = (
        Workload(
            "siamese-fast",
            "paper's headline pair model: twin forward/backward and RMSProp at batch 64",
            (),
            (_prepare(), _pairs(fast), _train("siamese", siamese_epochs, 64),
             _eval("siamese"), export),
            "train_siamese",
        ),
        Workload(
            "base-batch16",
            "weighted-BCE baseline at batch 16: per-call overhead and Adam; no pairs, no twin",
            (),
            (_prepare(), _train("base", base_epochs, 16), _eval("base")),
            "train_base",
        ),
        Workload(
            "eval-full",
            "full 200k pair corpus and 40k-pair eval: large-batch inference and pair-CSV I/O",
            (_prepare(), _pairs(fast), _train("siamese", checkpoint_epochs, 64)),
            (_pairs(full), _eval("siamese")),
            "pairs",
        ),
    )
    return {w.name: w for w in workloads}


def normalized(seconds: float, probes: list[float]) -> float:
    """Seconds scaled by the probe times taken around them, so that a
    machine running slower for a while does not read as a slower program."""
    return seconds * PROBE_NOMINAL_S / statistics.median(probes)


class SpeedProbe:
    """A fixed mix of the work the stages do: batch-64 GEMMs, small
    batch-16 numpy calls and float text round trips. It never changes with
    the program, so its duration tracks how fast the machine runs at the
    moment it is timed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.batch = rng.random((64, 256))
        self.small = rng.random((16, 256))
        self.weights = rng.random((256, 256))
        self.row = rng.random(15)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(100):
            self.batch @ self.weights.T
        for _ in range(200):
            h = np.maximum(self.small @ self.weights.T, 0.0)
            h *= 0.5
            float(h.sum())
        for _ in range(400):
            line = ",".join(repr(float(v)) for v in self.row)
            [float(t) for t in line.split(",")]
        return time.perf_counter() - start


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def _data_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()[1:]


def _read_kv(path: Path) -> dict[str, str]:
    kv = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path.name}: not key=value: {line!r}")
        kv[key] = value
    return kv


# Quality guards per eval report: (accuracy key, class-1 recall key).
GUARD_KEYS = {
    "eval_siamese.kv": ("pair_accuracy", "sample_recall_class1"),
    "eval_base.kv": ("accuracy", "recall_class1"),
}


class Runner:
    """Runs one workload in one run directory and checks what it writes."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.run_dir = self.work_dir / "run"
        self.input = self.work_dir / "input.csv"
        self.ledger = Ledger()
        self.reference: dict[str, str] | None = None
        self.tracer = Tracer()
        self.spans: list[tuple[int, Span]] = []  # (traced pass, span)
        self.traced_passes = 0
        self.probe = SpeedProbe()
        self.setups: list[dict] = []  # raw seconds and probe seconds per set-up
        self.passes: list[dict[str, float]] = []  # stage seconds per untraced pass
        self.probes: list[list[float]] = []  # probe seconds before each stage, per pass
        outputs = {o for s in workload.setup + workload.timed for o in s.outputs}
        self.deterministic = sorted(outputs & set(DETERMINISTIC))

    # -- stages and checks -------------------------------------------------

    def stage(self, stage: Stage, traced: bool = False) -> float:
        argv = [str(self.input) if a == INPUT else a for a in stage.argv]
        argv += ["--out", str(self.run_dir), "--seed", str(self.seed)]
        err = io.StringIO()
        span = self.tracer.span(f"cli.{stage.name}") if traced else nullcontext()
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err), span:
                rc = cli.main(argv)
        except Exception:  # a crashing stage is counted, and the run goes on
            rc = traceback.format_exc(limit=1).strip().splitlines()[-1]
        seconds = time.perf_counter() - start
        if self.ledger.check(rc == 0, f"{stage.name}: exit {rc}: {err.getvalue().strip()}"):
            self.check_outputs(stage)
        return seconds

    def check_outputs(self, stage: Stage):
        missing = [o for o in stage.outputs if not (self.run_dir / o).is_file()]
        if not self.ledger.check(not missing, f"{stage.name}: missing {missing}"):
            return
        try:
            if stage.pairs is not None:
                self.check_pairs(stage.pairs)
            elif stage.epochs:
                history = _data_lines(self.run_dir / stage.outputs[1])
                self.ledger.check(len(history) == stage.epochs,
                                  f"{stage.name}: {len(history)} history rows")
            elif stage.name.startswith("eval_"):
                self.guards(stage.outputs[1])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.ledger.check(False, f"{stage.name}: unreadable output: {exc}")

    def check_pairs(self, counts: tuple[int, int, int]):
        """Both pair files hold exactly the requested corpus, split 80/20."""
        labels = np.array([int(line.rsplit(",", 1)[1])
                           for line in _data_lines(self.run_dir / "normalized.csv")])
        parts = []
        for name in ("pairs_train.csv", "pairs_test.csv"):
            text = (self.run_dir / name).read_text().partition("\n")[2]
            parts.append(np.array(text.replace("\n", ",").split(",")[:-1],
                                  dtype=np.int64).reshape(-1, 3))
        total = sum(counts)
        both = np.vstack(parts)
        similar = both[:, 2] == 1
        left_label = labels[both[:, 0]]
        found = (
            len(parts[0]), len(parts[1]), int((~similar).sum()),
            int((similar & (left_label == 0)).sum()), int((similar & (left_label == 1)).sum()),
        )
        train = round(cli.PAIR_TRAIN_FRACTION * total)
        expected = (train, total - train) + tuple(counts)
        self.ledger.check(found == expected, f"pairs: counts {found} != {expected}")

    def guards(self, kv_name: str) -> tuple[float, float]:
        """The eval report's (accuracy, class-1 recall); both must be in [0, 1]."""
        kv = _read_kv(self.run_dir / kv_name)
        values = tuple(float(kv[key]) for key in GUARD_KEYS[kv_name])
        self.ledger.check(all(0.0 <= v <= 1.0 for v in values), f"{kv_name}: {values}")
        return values

    def digest(self) -> dict[str, str]:
        paths = [self.input] + [self.run_dir / name for name in self.deterministic]
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else "missing"
            for p in paths
        }

    # -- passes ------------------------------------------------------------

    def run_pass(
        self, stages: tuple[Stage, ...], traced: bool = False, probes: list | None = None
    ) -> dict[str, float]:
        """Run a chain of stages; stage name -> seconds. With a `probes`
        list, time the speed probe before each stage into it. The
        deterministic artifacts must hash the same after every pass."""
        times = {}
        for stage in stages:
            if probes is not None:
                probes.append(self.probe())
            times[stage.name] = times.get(stage.name, 0.0) + self.stage(stage, traced)
        digest = self.digest()
        if self.reference is None:
            self.reference = digest
        else:
            changed = sorted(k for k in digest if digest[k] != self.reference[k])
            self.ledger.check(not changed, f"determinism: {changed} differ")
        return times

    def set_up(self) -> dict:
        """Fresh run directory and input, then one warm-up pass of every
        stage; returns the raw seconds this took and the probe times."""
        probes = [self.probe()]
        start = time.perf_counter()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        framingham.write_csv(self.input, self.seed)
        seconds = time.perf_counter() - start
        times = self.run_pass(self.workload.setup + self.workload.timed, probes=probes)
        return {"seconds": seconds + sum(times.values()), "probes": probes}

    def traced_pass(self) -> tuple[dict[str, float], dict[str, float]]:
        """One pass with every TARGETS function wrapped; returns its stage
        times and its per-layer values, times in normalized seconds."""
        probes = []
        with self.tracer.installed():
            times = self.run_pass(self.workload.timed, traced=True, probes=probes)
        spans, share = self.tracer.take()
        self.spans += [(self.traced_passes, s) for s in spans]
        self.traced_passes += 1
        totals = layer_totals(spans)
        units = per_layer_units()
        values = {"nn.forward.infer.unique_row_share": share}
        for layer in LAYERS:
            found = totals.get(layer, {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0})
            for field_name, value in found.items():
                if field_name in ("s", "self_s"):
                    value = normalized(value, probes)
                if f"{layer}.{field_name}" in units:
                    values[f"{layer}.{field_name}"] = value
        return {name: normalized(t, probes) for name, t in times.items()}, values

    # -- the run -----------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        setups = self.setups = [self.set_up() for _ in range(SETUPS)]
        plain, traced = self.passes, []
        start = time.perf_counter()
        while True:
            self.probes.append([])
            plain.append(self.run_pass(self.workload.timed, probes=self.probes[-1]))
            if trace:
                traced.append(self.traced_pass())
            if time.perf_counter() - start >= seconds:
                break
        if trace:
            metrics = self.layer_metrics(plain, traced)
        else:
            try:
                metrics = self.end_to_end(setups, plain)
            except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
                # Outputs the metrics need are missing; the failure is counted
                # and every metric reads 0 so the result line stays complete.
                self.ledger.check(False, f"metrics: {type(exc).__name__}: {exc}")
                metrics = {k: {"value": 0.0, "unit": u} for k, u in END_TO_END.items()}
        return {
            "correct": self.ledger.failed == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": metrics,
        }

    def facts(self) -> dict[str, int]:
        """Row and pair counts of the set-up's artifacts, for throughputs."""
        parts = [line.split(",")[1] for line in _data_lines(self.run_dir / "splits.csv")]
        facts = {"train_rows": parts.count("train"), "test_rows": parts.count("test")}
        for name in ("pairs_train", "pairs_test"):
            path = self.run_dir / f"{name}.csv"
            facts[name] = len(_data_lines(path)) if path.is_file() else 0
        model = self.run_dir / "siamese_model.npz"
        if model.is_file():
            with np.load(model) as npz:
                facts["refs"] = npz["refs0"].shape[0] + npz["refs1"].shape[0]
        return facts

    def stage_items(self, stage: Stage, facts: dict[str, int]) -> int:
        """Items a stage handles: training pairs or samples times epochs,
        pairs generated, or table rows embedded or scored."""
        if stage.name == "train_siamese":
            return facts["pairs_train"] * stage.epochs
        if stage.name == "train_base":
            return facts["train_rows"] * stage.epochs
        if stage.name == "pairs":
            return sum(stage.pairs)
        if stage.name == "eval_siamese":
            return 2 * facts["pairs_test"] + facts["test_rows"] + facts["refs"]
        if stage.name == "eval_base":
            return facts["test_rows"]
        raise ValueError(f"no item count for stage {stage.name}")

    def end_to_end(self, setups, plain) -> dict[str, dict]:
        facts = self.facts()
        stages = {s.name: s for s in self.workload.timed}
        (eval_stage,) = [s for s in self.workload.timed if s.name.startswith("eval_")]
        scaled = [
            {name: normalized(t, probes) for name, t in p.items()}
            for p, probes in zip(plain, self.probes)
        ]

        def rate(stage: Stage) -> float:
            return self.stage_items(stage, facts) / statistics.median(p[stage.name] for p in scaled)

        accuracy, recall = self.guards(eval_stage.outputs[1])
        values = {
            "setup_s": statistics.median(normalized(s["seconds"], s["probes"]) for s in setups),
            "wall_norm_s": statistics.median(sum(p.values()) for p in scaled),
            "stage_items_per_norm_s": rate(stages[self.workload.items_stage]),
            "eval_rows_per_norm_s": rate(eval_stage),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": accuracy,
            "recall_class1": recall,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def layer_metrics(self, plain, traced) -> dict[str, dict]:
        units = per_layer_units()
        values = {
            name: statistics.median(v[name] for _, v in traced)
            for name in units if not name.startswith("trace.")
        }
        traced_wall = statistics.median(sum(t.values()) for t, _ in traced)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(
            sum(normalized(t, probes) for t in p.values())
            for p, probes in zip(plain, self.probes)
        )
        return {k: {"value": values[k], "unit": units[k]} for k in units}
