"""siamtab benchmark: real CLI stages in one process, checked and timed.

Run from the repository root:

    python3 benchmarks/run.py --workload siamese-fast --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics with tracing off. --trace 1 wraps the
public functions of data, pairs, nn, siamese and train, times each CLI stage
as a cli.<stage> span, and prints per-layer metrics plus the tracing overhead
(traced minus untraced pass time, from passes alternated in the same run).

Every time reported, setup_s included, is in normalized seconds: a stage's
time scaled by PROBE_NOMINAL_S over the median duration of a fixed
numpy/Python speed probe timed between the stages of the same pass or
set-up. On a shared two-core machine the speed drifts by 20% or more from
minute to minute; the probe drifts with it, so scaled times stay steady
where raw wall times do not. Raw stage and probe times go to the result file.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment. Scratch
files, the spans of a traced run and the full result go to
.benchwork/<workload>/ under the repository root. The program is imported
from src/ next to this directory; without it the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("siamese-fast", "base-batch16", "eval-full")

# One BLAS thread: on a shared two-core machine a second thread speeds up the
# batch-64 twin but slows batch-16 training, and it adds noise. The count
# must be fixed before numpy is first imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was fixed")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Put the checkout's src/ first on sys.path and import siamtab from it."""
    src = ROOT / "src"
    if not (src / "siamtab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no siamtab sources under {src}")
    sys.path.insert(0, str(src))
    import siamtab

    if Path(siamtab.__file__).resolve().parent != src / "siamtab":
        raise ImportError(f"siamtab imported from {siamtab.__file__}, not {src}")
    return siamtab


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import Runner, make_workloads

    work_dir = ROOT / ".benchwork" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(make_workloads()[args.workload], args.seed, work_dir)
    result = runner.run(args.seconds, bool(args.trace))

    env = environment()
    if runner.spans:
        with open(work_dir / "spans.jsonl", "w") as fh:
            for index, span in runner.spans:
                fh.write(json.dumps({"pass": index, **asdict(span)}) + "\n")
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "notes": runner.ledger.notes,
            "setups": runner.setups, "passes": runner.passes, "probes": runner.probes,
            **result}
    (work_dir / "result.json").write_text(json.dumps(full, indent=1) + "\n")

    for note in runner.ledger.notes:
        print(f"failed: {note}")
    ratio = result["failed"] / result["attempted"]
    print(f"failed_op_ratio {result['failed']}/{result['attempted']} = {ratio}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
