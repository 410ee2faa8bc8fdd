"""The benchmark's own tests: run with `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["trainer.calls"] >= 1 and values["dataio.ingest_s"] > 0
        assert values["dataio.checkpoint_load_s"] > 0


def test_reported_times_are_wall_times_rescaled_by_the_reference():
    proc = bench("--workload", "conv-lloyd", "--seed", "5", "--seconds", "1",
                 "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert record["reference_nominal_s"] == reference.NOMINAL_S
    for rep in record["repetitions"]:
        before, after = rep["reference_s"]
        assert before > 0 and after > 0
        for name, wall in rep["wall"].items():
            assert rep["e2e"][name] == pytest.approx(wall * reference.NOMINAL_S * 2 / (before + after))
    assert record["wall_medians"]["time_to_labels_s"] > 0
    assert result["metrics"]["time_to_labels_s"]["value"] > 0


def test_mismatched_label_digest_counts_as_failed_run():
    e2e = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    records = [
        {"ok": True, "seed": 7, "digest": "a" * 64, "traced": False, "e2e": e2e},
        {"ok": True, "seed": 8, "digest": "b" * 64, "traced": False, "e2e": e2e},
        {"ok": True, "seed": 7, "digest": "c" * 64, "traced": False, "e2e": e2e},
        {"ok": True, "seed": 8, "digest": "b" * 64, "traced": False, "e2e": e2e},
    ]
    run.check_repeat_digests(records)
    result = run.summarize(records, 0, list(e2e))
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 1, False)
    assert [r["ok"] for r in records] == [True, True, False, True]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "blobs-joint", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_patches_reimported_names_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import driftclust.cli  # noqa: F401
    from driftclust import clustering, trainer

    assert tracer.missing_targets() == []
    original = clustering.assign_batch
    assert trainer.assign_batch is original
    t = tracer.Tracer()
    t.install()
    try:
        assert trainer.assign_batch is clustering.assign_batch
        assert trainer.assign_batch.__wrapped__ is original
        bank = clustering.CentroidBank(np.eye(3), np.ones(3))
        trainer.assign_batch(bank, np.eye(3))
    finally:
        t.restore()
    assert trainer.assign_batch is original and clustering.assign_batch is original
    (name, start, end, parent, run_id, rows), = t.spans
    assert (name, parent, run_id, rows) == ("clustering.assign_batch", -1, "main", 3)
    assert end >= start


def test_generator_is_seeded_and_prefix_stable():
    a_img, a_lab = workloads.mnist_like(60, seed=4)
    b_img, b_lab = workloads.mnist_like(30, seed=4)
    assert a_img.dtype == np.uint8 and a_img.shape == (60, 28, 28)
    assert np.array_equal(a_img[:30], b_img) and np.array_equal(a_lab[:30], b_lab)
    assert not np.array_equal(workloads.mnist_like(30, seed=5)[0], b_img)
