"""Per-layer tracing installed from the benchmark's own process.

``Tracer.installed()`` rebinds every public function of ``biasym.patterns``,
``dof``, ``signal``, ``search`` and ``cli``, in every ``biasym`` module
namespace that holds it, plus ``numpy.linalg.svd`` and ``lstsq`` (which
``signal`` looks up at call time).  The program's files are not changed.

Each call records a span (name, start, end, parent) in memory and bumps an
exact call count.  A generator function gets one span per ``next``, so its
time is the sum of the time spent producing items, and it counts the items
yielded.  A few layers also record exact work counts: SVD work
(m*n*min(m,n)) and bytes (itemsize*m*n), distinct effective-matrix builds,
and configs checked by ``verify_sweep``.  A layer's self time is its span
time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("patterns", "dof", "signal", "search", "cli")
KERNELS = ("svd", "lstsq")


def _svd_work(tracer, args, kwargs, result) -> None:
    import numpy

    a = numpy.asarray(args[0] if args else kwargs["a"])
    *batch, m, n = a.shape
    copies = 1
    for b in batch:
        copies *= b
    tracer.counts["linalg.svd.work_computed"] += copies * m * n * min(m, n)
    tracer.counts["linalg.svd.bytes_computed"] += copies * a.itemsize * m * n


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _effective_matrix_build(tracer, args, kwargs, result) -> None:
    bound = _signature(tracer.originals["signal.effective_matrix"]).bind(*args, **kwargs)
    channels = bound.arguments["channels"]
    # ids are only unique among live objects, so keep every channel set alive
    tracer.channel_sets[id(channels)] = channels
    tracer.matrix_builds.add((id(channels), bound.arguments["rx"], bound.arguments["tx"]))


def _configs_checked(tracer, args, kwargs, result) -> None:
    tracer.counts["search.verify_sweep.configs_checked"] += len(result.checked)


HOOKS = {
    "linalg.svd": _svd_work,
    "signal.effective_matrix": _effective_matrix_build,
    "search.verify_sweep": _configs_checked,
}


class Tracer:
    """Spans and exact counts of one traced run, held in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.enabled = True
        self.originals: dict = {}
        self.channel_sets: dict = {}
        self.matrix_builds: set = set()
        self._stack: list[int] = []
        self._restore: list = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Let calls made by the benchmark itself through unrecorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        self.originals[name] = fn
        hook = HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.calls[name] += 1
                return tracer._iterate(name, fn(*args, **kwargs))
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return wrapper

    def _iterate(self, name: str, items):
        while True:
            idx = self._open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts[f"{name}.yielded"] += 1
            yield item

    def _rebind(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, fn))

    @contextmanager
    def installed(self):
        """Wrap every traced layer for the duration of the block."""
        import numpy

        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == "biasym" or key.startswith("biasym.")
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"biasym.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    self._rebind(modules, fn, self._wrap(f"{layer}.{attr}", fn))
        for attr in KERNELS:
            fn = getattr(numpy.linalg, attr)
            self._rebind([numpy.linalg], fn, self._wrap(f"linalg.{attr}", fn))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(self._restore):
                setattr(mod, attr, fn)
            self._restore.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return dict(out)

    def exact_counts(self) -> dict[str, int]:
        """Call counts and work counts; these repeat exactly between runs."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        out["signal.effective_matrix.builds_computed"] = len(self.matrix_builds)
        return out

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.exact_counts())
        out.update({f"{name}.self_s": t for name, t in self.self_times().items()})
        calls = self.calls["signal.effective_matrix"]
        out["signal.effective_matrix.unique_ratio"] = (
            len(self.matrix_builds) / calls if calls else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON; times are relative to the first."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], s - t0, e - t0, p] for n, s, e, p in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
