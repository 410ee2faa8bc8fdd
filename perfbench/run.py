"""driftclust benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload {blobs-joint,conv-lloyd}
        --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout; the package is imported from its `src/`.
The seed fixes every input. Repetitions run one at a time, each in its own
child process (perfbench/child.py), until the next one would overrun
`--seconds`; a minimum number always runs so that each input seed repeats
at least once and its label digest can be compared.

With `--trace 0` the last stdout line carries the end-to-end medians over
the repetitions; the times in it are wall times rescaled to a nominal host
speed by a reference timed around each repetition (perfbench/reference.py).
With `--trace 1` untraced and traced repetitions alternate on the same
seed; the line carries the per-layer medians of the traced ones and
`trace.overhead_s`, the traced minus the untraced median time_to_labels_s.
A run record (versions, BLAS threads, digests, raw wall medians and every
reference reading) is printed on the line before. Scratch files, spans and records go under
`.perfbench_work/` in the checkout. `--tiny` runs the same paths at sizes
small enough for the benchmark's tests.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # steadier timings than a pool, and never above nproc
DEADLINE_S = 170.0  # the whole invocation must end within 180 s


def blas_env():
    """Child environment with the BLAS pool pinned to BLAS_THREADS."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_record(args, records):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    untraced = [r for r in records if r.get("ok") and not r["traced"]]
    rev = None
    if (ROOT / ".git").exists():  # a benchmark checkout is usually not a repository
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "driftclust").rglob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "bench_seed": args.seed,
        "generator": workloads.GENERATOR,
        "label_digests": sorted({(r["seed"], r["digest"]) for r in records if r.get("ok")}),
        "reference_nominal_s": reference.NOMINAL_S,
        "wall_medians": {name: median(r["wall"][name] for r in untraced)
                         for name in untraced[0]["wall"]} if untraced else {},
        "repetitions": [{key: r.get(key) for key in ("seed", "traced", "ok", "error", "e2e", "wall",
                                                     "reference_s", "quality")}
                         for r in records],
    }


def check_repeat_digests(records):
    """Fail every repetition whose labels digest differs from the first
    successful repetition of the same input seed."""
    first = {}
    for rec in records:
        if not rec.get("ok"):
            continue
        ref = first.setdefault(rec["seed"], rec["digest"])
        if rec["digest"] != ref:
            rec["ok"] = False
            rec["error"] = f"labels digest {rec['digest'][:12]} differs from {ref[:12]} for seed {rec['seed']}"


def summarize(records, trace, metric_names):
    """The result object: medians over successful repetitions."""
    ok = [r for r in records if r.get("ok")]
    failed = len(records) - len(ok)
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if trace:
        metrics = {name: median(r["layers"][name] for r in traced)
                   for name in metric_names if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median(r["e2e"]["time_to_labels_s"] for r in traced)
                                       - median(r["e2e"]["time_to_labels_s"] for r in untraced))
    else:
        metrics = {name: median(r["e2e"][name] for r in untraced) for name in metric_names}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def run_child(args, seed, inputs, traced, resume_check, rep, env, remaining):
    out = WORK / f"rep-{args.workload}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(seed), "--out", str(out)]
    if inputs is not None:
        cmd += ["--images", str(inputs[0]), "--labels", str(inputs[1])]
    if traced:
        cmd += ["--trace", "--spans", str(WORK / f"spans-{args.workload}-seed{args.seed}-rep{rep}.jsonl.gz")]
    if resume_check:
        cmd.append("--resume-check")
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out", "seed": seed, "traced": traced}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"ok": False, "error": f"child exited {proc.returncode} without a record"}
    if not record.get("ok"):
        sys.stderr.write(proc.stderr[-4000:])
    record.update(seed=seed, traced=traced)
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description="driftclust benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    args = p.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "driftclust" / "__init__.py").is_file():
        print(f"error: no driftclust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    WORK.mkdir(exist_ok=True)
    env = blas_env()

    inputs = None
    if wl.uses_idx:
        images, labels = workloads.mnist_like(wl.images, args.seed)
        inputs = workloads.write_idx(WORK / f"idx-{args.workload}", images, labels)
        del images, labels

    seeds = wl.input_seeds(args.seed)
    modes = (False, True) if args.trace else (False,)
    min_units = 1 if args.trace else len(seeds) + 1
    records, unit_times = [], []
    measure_start = time.perf_counter()
    while True:
        unit = len(unit_times)
        elapsed = time.perf_counter() - measure_start
        if unit >= min_units and elapsed + median(unit_times) > args.seconds:
            break
        seed = seeds[unit % len(seeds)]
        unit_start = time.perf_counter()
        for traced in modes:
            remaining = DEADLINE_S - (time.perf_counter() - started)
            resume = unit == 0 and wl.resume_epoch > 0 and not traced
            records.append(run_child(args, seed, inputs, traced, resume,
                                     len(records), env, remaining))
        unit_times.append(time.perf_counter() - unit_start)
        if time.perf_counter() - started > DEADLINE_S - 2 * max(unit_times):
            break

    check_repeat_digests(records)
    for rec in records:
        if not rec.get("ok"):
            print(f"failed repetition (seed {rec['seed']}): {rec.get('error')}", file=sys.stderr)
    if inputs is not None:
        for path in inputs:
            path.unlink()
    if not all(any(r.get("ok") and r["traced"] == mode for r in records) for mode in modes):
        print("error: no repetition succeeded, nothing to report", file=sys.stderr)
        return 1

    result = summarize(records, args.trace, list(units))
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    record = run_record(args, records)
    (WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
