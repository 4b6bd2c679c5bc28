"""Smoke test of the stack benchmark (not part of the tier-1 suite).

    python3 -m pytest benchmarks/stack/test_stack_smoke.py

Runs every workload at the ``--smoke`` size class (inputs / 64, one
repetition), untraced and traced, and checks the contract between
``run.py`` and ``BENCHMARK.json``.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run(workload: str, out: pathlib.Path, trace: int, seed: int = 3):
    """One smoke run; returns (final JSON line, artifact)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout
    name = "result.traced.json" if trace else "result.json"
    artifact = json.loads((out / workload / name).read_text())
    return json.loads(done.stdout.strip().splitlines()[-1]), artifact


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    last, artifact = run(workload, tmp_path, trace=0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert artifact["smoke"] is True
    assert artifact["details"]["failed_frac"]["value"] == 0
    assert set(last["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = last["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    last, artifact = run(workload, tmp_path, trace=1)
    assert last["correct"] is True
    assert set(last["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert artifact["null_reasons"] == {}, "a probe lost its symbol"
    assert artifact["per_layer"]["machine.memcpy_gbps"] > 0
    spans = [
        json.loads(line)
        for line in (tmp_path / workload / "trace.jsonl").read_text().splitlines()
    ]
    ids = {span["id"] for span in spans}
    assert all(span["parent"] is None or span["parent"] in ids for span in spans)
    assert all(span["workload"] == workload and span["end"] >= span["start"] for span in spans)
    assert any(span["parent"] is not None for span in spans)


def test_rules_cover_exactly_the_declared_per_layer_metrics():
    import layers

    assert set(layers.RULES) == {metric["name"] for metric in SPEC["per_layer"]}


def test_spill_write_amplification_repeats_exactly(tmp_path):
    amps = [
        run("spill_ooc", tmp_path / str(i), trace=0)[1]["details"]["spill_write_amp"]["value"]
        for i in range(2)
    ]
    assert amps[0] == amps[1]


def test_numpy_backend_is_labelled_not_native(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "numpy")
    _, artifact = run("bulk_uniform", tmp_path, trace=1)
    assert artifact["kernels"] == "numpy"
    assert artifact["per_layer"]["kernels.native"] == 0


def test_oracle_rejects_one_corrupted_payload_byte():
    from harness import Reference
    from repro import FpgaPartitioner, PartitionerConfig, make_relation

    relation = make_relation(1 << 12, "random", seed=5)
    partitioner = FpgaPartitioner(PartitionerConfig(num_partitions=64))
    reference = Reference.of(partitioner.partition(relation))
    output = partitioner.partition(relation)
    assert reference.divergence(output) is None
    victim = int(np.argmax(output.counts))
    payloads = np.array(output.partition_payloads[victim], copy=True)
    payloads.view(np.uint8)[0] ^= 0x01
    output.partition_payloads[victim] = payloads
    assert reference.divergence(output) == "payloads"


def test_compare_refuses_artifacts_of_different_seeds(tmp_path):
    import compare

    for seed in (1, 2):
        run("service_burst", tmp_path / str(seed), trace=0, seed=seed)
    paths = [str(tmp_path / str(seed) / "service_burst" / "result.json") for seed in (1, 2)]
    assert compare.main(paths) == 2
    assert compare.main([paths[0], paths[0]]) == 0
