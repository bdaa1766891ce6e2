"""One benchmark process: set up, then run a workload's requests in-process.

Started by ``run.py`` in a fresh interpreter, so imports, caches and peak
memory never leak between workloads or modes.  It imports ``biasym.cli``
from the checkout's ``src``, sends one untimed warm-up request, writes
``ready`` to stdout (the parent stops its set-up clock there), and then:

* ``--mode probe``: exits;
* ``--mode plain``: runs whole passes over the request list until the next
  one would end after ``--seconds`` (at least one pass), untraced, and
  times a fixed calibration task before each request and after the last,
  so the parent can tell the program's speed from the host's;
* ``--mode traced``: runs one pass with every layer wrapped by
  ``spans.Tracer`` and writes the spans to ``--spans``.

The last stdout line is a JSON summary for the parent.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout, nullcontext
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import biasym.cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def execute(req: workloads.Request, out_path: Path) -> tuple[oracle.Outcome, float]:
    """Send one request to ``biasym.cli.main``; return its outcome and latency in s."""
    argv = list(req.argv) + (["--out", str(out_path)] if req.writes_file else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = biasym.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails this request, not the run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
    latency = time.perf_counter() - start
    file_text = None
    if req.writes_file and out_path.exists():
        file_text = out_path.read_text(encoding="utf-8")
        out_path.unlink()
    return oracle.Outcome(code, stdout.getvalue(), stderr.getvalue(), file_text), latency


CALIBRATION_MATRIX = numpy.sin(numpy.arange(48 * 48) ** 2.0).reshape(48, 48)


def calibrate() -> float:
    """Time a fixed task of interpreter and LAPACK work (about 1 ms), in s."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + 3 * i
    numpy.linalg.svd(CALIBRATION_MATRIX)
    return time.perf_counter() - start


class Pass:
    """Latencies, calibration samples and failures of one pass over the request list."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.calibration_s: list[float] = []  # before each request and after the last
        self.problems: list[str] = []  # one per failed request

    def run(self, requests, digests, out_path: Path, tracer: Tracer | None = None,
            calibrated: bool = False) -> "Pass":
        for req in requests:
            if calibrated:
                self.calibration_s.append(calibrate())
            outcome, latency = execute(req, out_path)
            self.latencies_ms.append(latency * 1e3)
            with tracer.paused() if tracer else nullcontext():
                problems = oracle.check(req, outcome, digests)
            if problems:
                self.problems.append(f"{' '.join(req.argv)}: {'; '.join(problems)}")
        if calibrated:
            self.calibration_s.append(calibrate())
        return self


def blas_info() -> dict:
    info = {"numpy": numpy.__version__}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        info["blas"] = None
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "plain", "traced"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for the requests' --out files")
    parser.add_argument("--spans", type=Path, help="span file of a traced run")
    args = parser.parse_args(argv)

    golden = workloads.load_golden()
    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        return run(args, golden, Path(scratch) / "out.txt")


def run(args, golden: dict, out_path: Path) -> int:
    warmup = Pass().run([workloads.warmup_request()], golden["digests"], out_path)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.mode == "probe":
        return 1 if warmup.problems else 0

    requests = workloads.generate(args.workload, args.seed, golden)
    summary = {"warmup_problems": warmup.problems, "requests_per_pass": len(requests)}
    if args.mode == "plain":
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            passes.append(Pass().run(requests, golden["digests"], out_path, calibrated=True))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    else:
        tracer = Tracer()
        with tracer.installed():
            passes = [Pass().run(requests, golden["digests"], out_path, tracer)]
        summary["layers"] = tracer.metrics()
        summary["exact_counts"] = tracer.exact_counts()
        if args.spans:
            tracer.write(args.spans)
            summary["span_count"] = len(tracer.spans)
    summary.update(
        pass_latencies_ms=[p.latencies_ms for p in passes],
        pass_calibration_s=[p.calibration_s for p in passes],
        attempted=sum(len(p.latencies_ms) for p in passes),
        failed=sum(len(p.problems) for p in passes),
        problems=[x for p in passes for x in p.problems][:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **blas_info(),
    )
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
