"""Spans around calls into cvpuk's public functions, recorded from outside.

The benchmark wraps each traced function and patches the wrapper into
every loaded ``cvpuk`` module that binds it (modules bind each other's
functions through ``from .x import f``), so a call is recorded however
it is reached.  The wrappers are removed when tracing ends.

A span is ``(name, start_ns, end_ns, parent, info)``: ``parent`` is the
index of the enclosing traced span (-1 at top level) and ``info`` is a
small per-function annotation, such as the session count of a
verification run.  Spans stay in memory until the run writes them out.

``AllocationMeter`` measures, in a pass of its own, the peak memory one
function allocates per call; tracemalloc slows allocation several times
over, so it never runs inside a timed pass.
"""

from __future__ import annotations

import csv
import inspect
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


def _argument(fn, name):
    signature = inspect.signature(fn)

    def lookup(args, kwargs):
        return signature.bind(*args, **kwargs).arguments[name]

    return lookup


def _enrollment_draws(fn):
    probes = _argument(fn, "probes")
    samples = _argument(fn, "per_quadrature_samples")
    return lambda args, kwargs, result: (
        2 * probes(args, kwargs).size * samples(args, kwargs)
    )


def _verify_sessions(fn):
    return lambda args, kwargs, result: result.sessions


# traced functions as (module, function, annotator factory or None)
TRACED = (
    ("streams", "substream", None),
    ("scattering", "generate_key", None),
    ("scattering", "optimal_mask", None),
    ("protocol", "enroll_exact", None),
    ("protocol", "enroll_sampled", _enrollment_draws),
    ("protocol", "verify", _verify_sessions),
    ("adversary", "false_key", None),
    ("adversary", "clone_key", None),
    ("experiments", "run_response_cloud", None),
    ("experiments", "run_clone_experiments", None),
    ("experiments", "run_campaign", None),
    ("jsonio", "dump", None),
    ("cli", "main", None),
)


def _function(module_name, fn_name):
    return getattr(sys.modules[f"cvpuk.{module_name}"], fn_name)


@contextmanager
def _patched(replacements):
    """Bind each ``(original, wrapper)``'s wrapper wherever a cvpuk module
    binds the original, and restore the originals afterwards."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "cvpuk" or n.startswith("cvpuk.")]
    patches = []
    try:
        for original, wrapper in replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, annotate):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if annotate is not None:
                spans[index] = (name, start, end, parent, annotate(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced function into each cvpuk module binding it."""
        replacements = []
        for module_name, fn_name, factory in TRACED:
            original = _function(module_name, fn_name)
            annotate = factory(original) if factory else None
            replacements.append(
                (original, self._wrap(f"{module_name}.{fn_name}", original, annotate))
            )
        with _patched(replacements):
            yield self

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarise(spans) -> dict:
    """Per-function calls, self time and annotations of one traced pass.

    Self time is a span's duration minus the durations of its direct
    child spans, which nest strictly inside it.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table = {}
    for index, (name, start, end, parent, info) in enumerate(spans):
        entry = table.setdefault(name, {"calls": 0, "self_ns": 0, "info": 0})
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[index]
        if isinstance(info, (int, float)):
            entry["info"] += info

    top_level = sum(end - start for name, start, end, parent, info in spans if parent < 0)
    return {"functions": table, "top_level_ns": top_level}


class AllocationMeter:
    """Peak bytes allocated inside each call of one cvpuk function.

    tracemalloc runs only during the call, and sees numpy's array buffers
    as well as Python objects.  ``peak_bytes`` sums, over the calls, the
    peak traced memory above what was traced when the call began.
    """

    def __init__(self, module_name, fn_name):
        self.module_name = module_name
        self.fn_name = fn_name
        self.peak_bytes = 0

    @contextmanager
    def installed(self):
        original = _function(self.module_name, self.fn_name)

        def wrapper(*args, **kwargs):
            already = tracemalloc.is_tracing()
            if not already:
                tracemalloc.start()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                self.peak_bytes += tracemalloc.get_traced_memory()[1] - before
                if not already:
                    tracemalloc.stop()

        with _patched([(original, wrapper)]):
            yield self


def write_spans(path: Path, passes) -> None:
    """Write the spans of every traced pass as CSV, times relative to the pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("pass", "span", "name", "start_ns", "end_ns", "parent", "info"))
        for number, spans in enumerate(passes):
            origin = spans[0][1] if spans else 0
            for index, (name, start, end, parent, info) in enumerate(spans):
                writer.writerow((number, index, name, start - origin, end - origin,
                                 parent, "" if info is None else info))
