"""Smoke test of the benchmark at tiny scale (about a minute):

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (standard library only at import time)

run.import_program()

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from siamtab import nn, train  # noqa: E402
from siamtab.data import FeatureTable  # noqa: E402
from siamtab.pairs import PairSet  # noqa: E402
from siamtab.siamese import SiameseModel  # noqa: E402

TINY = workloads.make_workloads(
    siamese_epochs=1, base_epochs=1, checkpoint_epochs=1,
    fast=(200, 100, 100), full=(400, 200, 200),
)


@pytest.fixture(scope="module")
def bench_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """(workload, trace) -> (runner, result) of one tiny run each."""
    out = {}
    for name, workload in TINY.items():
        for trace in (False, True):
            runner = workloads.Runner(workload, 5, tmp_path_factory.mktemp(name))
            out[name, trace] = runner, runner.run(0.0, trace)
    return out


def test_benchmark_json_lists_what_the_runner_reports(bench_json):
    assert [w["name"] for w in bench_json["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.make_workloads()) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench_json["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in bench_json["per_layer"]} == (
        workloads.per_layer_units()
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(results, bench_json, name, trace):
    _, result = results[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench_json[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_self_time_plus_child_time_is_the_total(results, name):
    runner, _ = results[name, True]
    recorded = [span for _, span in runner.spans]
    assert recorded
    by_id = {s.id: s for s in recorded}
    own = spans.self_times(recorded)
    child = dict.fromkeys(by_id, 0.0)
    for s in recorded:
        if s.parent >= 0:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            child[s.parent] += s.seconds
    for s in recorded:
        assert own[s.id] >= 0.0
        assert own[s.id] + child[s.id] == pytest.approx(s.seconds, abs=1e-12)


def test_unique_row_share_on_a_hand_built_pair_set():
    features = np.arange(12, dtype=np.float64).reshape(4, 3)
    ft = FeatureTable(features, np.array([0, 0, 1, 1]))
    # Eight rows reach the network (four left, four right); four are distinct.
    ps = PairSet(ft, [0, 0, 1, 2], [1, 2, 3, 3], [True, False, False, True], (2, 1, 1))
    spec = nn.NetworkSpec((nn.LayerSpec(3, 4, "relu"), nn.LayerSpec(4, 2)))
    model = SiameseModel(spec, nn.init_params(spec, 0))
    original = nn.forward
    tracer = spans.Tracer()
    with tracer.installed():
        train.evaluate_pairs(model, ps)
    assert nn.forward is original
    recorded, share = tracer.take()
    infer = [s for s in recorded if s.name == "nn.forward.infer"]
    assert [s.rows for s in infer] == [4, 4]
    assert share == pytest.approx(4 / 8)
    assert spans.unique_row_share([]) == 1.0


def test_unique_rows_are_counted_per_parameter_version():
    a, b = np.zeros((2, 3)), np.ones((1, 3))
    # The same row under two parameter versions is forwarded usefully twice.
    assert spans.unique_row_share([[a], [a, b]]) == pytest.approx((1 + 2) / (2 + 3))


def test_failures_are_counted_not_fatal(tmp_path):
    broken = workloads.Workload(
        "broken", "eval before any training", (),
        (TINY["base-batch16"].timed[0], workloads._eval("base")), "eval_base",
    )
    runner = workloads.Runner(broken, 5, tmp_path)
    result = runner.run(0.0, False)
    assert not result["correct"] and result["failed"] > 0
    assert set(result["metrics"]) == set(workloads.END_TO_END)
    assert any("eval_base: exit 1" in note for note in runner.ledger.notes)
