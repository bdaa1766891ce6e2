"""Benchmark of the biasym command line, end to end and per layer.

    python3 bench/run.py --workload {verify-flat,sweep-wide,cli-mix} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One client sends generated requests to
``biasym.cli.main`` in-process, each after the previous one returned
(closed loop), and checks every output (``oracle.py``).  Each measuring
process is a fresh interpreter (``worker.py``) with BLAS limited to one
thread, so imports, caches and peak memory never carry over.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: median over several fresh interpreters of the time from
  start, through ``import biasym.cli``, to the end of one warm-up request;
* ``wall_s``: median over passes of the time to complete the request list
  (sum of request latencies, warm-up excluded);
* ``job_p50_ms``, ``job_p90_ms``: median over passes of each pass's
  nearest-rank percentile of request latency;
* ``peak_rss_mb``: max RSS of the measuring process.

Latencies under ``LONG_REQUEST_MS`` are scaled to a reference host speed.
A shared host's speed swings by a third and more, within seconds and over
minutes, and in CPU time as much as in wall time, so raw timings of the
same code spread past any useful regression bound.  The measuring process
therefore times a fixed calibration task (``worker.calibrate``, about 1 ms
of interpreter and LAPACK work) before each request and after the last,
and a short request's latency is multiplied by ``CALIBRATION_REF_S`` over
the mean of the two samples on either side of it: the latency on a host
where the calibration task takes ``CALIBRATION_REF_S``.  The calibration
task is not part of the program, so the program's own speed-ups and
slow-downs pass through unchanged.  A request of ``LONG_REQUEST_MS`` or
more is kept as measured: the host's speed changes within it, so samples
at its two ends no longer tell the speed it ran at, and scaling it was
seen to widen the spread instead of narrowing it.  The unscaled figures
are kept in the result file.

``--trace 1`` runs one untraced pass and two traced passes, each in its
own interpreter, and reports the per-layer metrics: exact call and work
counts (asserted equal between the two traced passes), self times, the
failure ratio of all requests, and the tracing overhead.  Spans go to
``bench/results/spans-*.json.gz``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``bench/results/<workload>-seed<N>-trace<T>.json`` holds the full record
with its environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("verify-flat", "sweep-wide", "cli-mix")
BLAS_THREADS = 1
SETUP_PROBES = 5  # plus the measuring process itself
CALIBRATION_REF_S = 0.001
LONG_REQUEST_MS = 1000.0
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def pass_walls(summary: dict) -> list[float]:
    """Time to complete the request list, per pass, in s."""
    return [sum(latencies) / 1e3 for latencies in summary["pass_latencies_ms"]]


def scaled_passes(summary: dict) -> list[list[float]]:
    """Request latencies per pass in ms, short ones scaled to the reference host speed.

    Request i of a pass ran between calibration samples i and i + 1.
    """
    return [
        [ms if ms >= LONG_REQUEST_MS else ms * 2 * CALIBRATION_REF_S / (cal[i] + cal[i + 1])
         for i, ms in enumerate(latencies)]
        for latencies, cal in zip(summary["pass_latencies_ms"], summary["pass_calibration_s"])
    ]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, args, deadline: float, **extra) -> dict:
    """Run one worker to completion; returns its summary and setup time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--scratch", str(RESULTS)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} worker exceeded the time limit")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise WorkerError(f"{mode} worker failed with exit code {proc.returncode}")
    # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
    summary = json.loads(lines[-1]) if mode != "probe" else {}
    summary["setup_s"] = float(lines[0].split()[1]) - start
    return summary


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, worker: dict) -> dict:
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": worker.get("blas"),
        "blas_threads": BLAS_THREADS,
        "requests_per_pass": worker.get("requests_per_pass"),
    }


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    probes = [spawn("probe", args, deadline) for _ in range(SETUP_PROBES)]
    main = spawn("plain", args, deadline, seconds=args.seconds)
    setup = [p["setup_s"] for p in probes] + [main["setup_s"]]
    raw = main["pass_latencies_ms"]
    scaled = scaled_passes(main)
    metrics = {
        "wall_s": statistics.median(sum(p) for p in scaled) / 1e3,
        "job_p50_ms": statistics.median(percentile(p, 50) for p in scaled),
        "job_p90_ms": statistics.median(percentile(p, 90) for p in scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    record = {
        "environment": environment(args, main),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "fail_ratio": main["failed"] / main["attempted"],
        "problems": main["warmup_problems"] + main["problems"],
        "job_samples_per_pass": main["requests_per_pass"],
        "passes": len(raw),
        "unscaled": {
            "wall_s": statistics.median(pass_walls(main)),
            "job_p50_ms": statistics.median(percentile(p, 50) for p in raw),
            "job_p90_ms": statistics.median(percentile(p, 90) for p in raw),
        },
        "pass_wall_s": pass_walls(main),
        "calibration_ref_s": CALIBRATION_REF_S,
        "calibration_median_s": statistics.median(c for p in main["pass_calibration_s"] for c in p),
        "setup_samples_s": setup,
    }
    return metrics, record


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    plain = spawn("plain", args, deadline, seconds=0)
    traced = [
        spawn("traced", args, deadline,
              spans=RESULTS / f"spans-{args.workload}-seed{args.seed}-{i}.json.gz")
        for i in (1, 2)
    ]
    runs = [plain] + traced
    counts = [t["exact_counts"] for t in traced]
    problems = [p for r in runs for p in r["warmup_problems"] + r["problems"]]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        problems.append(f"exact counts differ between the two traced runs: {diff}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    layers = {
        key: statistics.mean(t["layers"].get(key, 0) for t in traced)
        for key in traced[0]["layers"].keys() | traced[1]["layers"].keys()
    }
    layers.update(counts[0])
    layers["fail_ratio"] = failed / attempted
    layers["trace.overhead_ratio"] = (
        statistics.mean(pass_walls(t)[0] for t in traced) / pass_walls(plain)[0]
    )
    record = {
        "environment": environment(args, plain),
        "layers": dict(sorted(layers.items())),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "exact_counts_equal": counts[0] == counts[1],
        "span_counts": [t.get("span_count") for t in traced],
    }
    return layers, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="biasym CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "biasym" / "cli.py").is_file() or not spec_path.is_file():
        print("bench: run from a checkout holding src/biasym and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.trace:
            values, record = per_layer(args, deadline)
            wanted = spec["per_layer"]
        else:
            values, record = end_to_end(args, deadline)
            wanted = spec["end_to_end"]
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
