"""Span tracing of ballwav's public functions, from outside the library.

`Tracer.install` replaces each listed module attribute with a wrapper that
records a span (name, start, end, parent span, op id) while an op is in
flight and calls straight through otherwise, so the correctness gate, which
runs between ops, is never attributed. Spans stay in memory until the run
ends. Computed counters (grid points, table bytes, file bytes, kept samples)
are taken in hooks after the span has closed; the time that top-level hooks
take is kept apart so that it is not charged to the harness.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

# Public functions wrapped in a traced run, as "<module>.<function>".
FUNCTIONS = (
    "sht.sht_forward",
    "sht.sht_inverse",
    "flag.flag_analysis",
    "flag.flag_synthesis",
    "flag.build_ball_scheme",
    "flag.fourier_bessel",
    "flag.jlp",
    "laguerre.build_radial_scheme",
    "laguerre.synthesis_matrix",
    "tiling.build_tiling",
    "flaglet.flaglet_analysis",
    "flaglet.flaglet_synthesis",
    "denoise.predict_sigma",
    "denoise.hard_threshold",
    "denoise.denoise_pipeline",
    "ballfile.from_bytes",
    "ballfile.to_bytes",
)

# Builders whose self time in the traced set-up round is reported as well.
SETUP_BUILDERS = (
    "flag.build_ball_scheme",
    "laguerre.build_radial_scheme",
    "laguerre.synthesis_matrix",
    "tiling.build_tiling",
)

SETUP_OP = "setup"

# Counters computed from shapes and sizes rather than timed.
COMPUTED = ("sht.points", "sht.table_bytes", "laguerre.table_bytes",
            "ballfile.bytes", "flaglet.flag_calls", "denoise.kept_frac")


def _values(obj):
    return getattr(obj, "values", obj)


def _count_points_in(tracer, args, result):
    tracer.count("sht.points", np.size(_values(args[1])))


def _count_points_out(tracer, args, result):
    tracer.count("sht.points", np.size(result))


def _count_bytes_in(tracer, args, result):
    tracer.count("ballfile.bytes", len(args[0]))


def _count_bytes_out(tracer, args, result):
    tracer.count("ballfile.bytes", len(result))


def _count_kept(tracer, args, result):
    for w in result.wavelets.values():
        vals = _values(w)
        tracer.count("denoise.kept", np.count_nonzero(vals))
        tracer.count("denoise.samples", np.size(vals))


HOOKS = {
    "sht.sht_forward": _count_points_in,
    "sht.sht_inverse": _count_points_out,
    "ballfile.from_bytes": _count_bytes_in,
    "ballfile.to_bytes": _count_bytes_out,
    "denoise.hard_threshold": _count_kept,
}


def _is_scheme(obj):
    return (dataclasses.is_dataclass(obj) and not isinstance(obj, type)
            and type(obj).__name__.endswith("Scheme"))


class Tracer:
    """Wraps module functions and records spans while `op` is not None."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.op = None
        self.absent = []
        self.hook_errors = set()
        self._stack = []
        self._patched = []
        self._counts = defaultdict(float)  # (op, counter) -> value
        self._hook_s = defaultdict(float)  # op -> seconds spent in hooks
        self._schemes = {}  # id -> scheme passed to a traced call

    def install(self, package):
        """Wrap each of FUNCTIONS; a missing one is recorded as absent."""
        for qualname in FUNCTIONS:
            modname, attr = qualname.split(".")
            try:
                module = importlib.import_module("%s.%s" % (package, modname))
            except ImportError:
                self.absent.append(qualname)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(qualname)
                continue
            setattr(module, attr, self._wrap(qualname, fn, HOOKS.get(qualname)))
            self._patched.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def recording(self, op):
        """Attribute the traced calls made inside the block to `op`."""
        self.op = op
        try:
            yield
        finally:
            self.op = None

    def count(self, name, amount):
        self._counts[(self.op, name)] += amount

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, op]
            tracer.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            for a in args:
                if _is_scheme(a):
                    tracer._schemes[id(a)] = a
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except (AttributeError, TypeError, IndexError):
                    tracer.hook_errors.add(name)
            if not stack:
                # a nested hook already lies inside its parent's span
                tracer._hook_s[op] += time.perf_counter() - span[2]
            return result

        return traced

    def table_bytes(self):
        """Bytes of numpy arrays held by the schemes seen, keyed by module.

        Walks each scheme dataclass and the dataclasses nested in it; an array
        counts towards the module that defines the dataclass holding it.
        """
        totals = defaultdict(int)
        seen = set()

        def walk(obj):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            owner = type(obj).__module__.rsplit(".", 1)[-1]
            for f in dataclasses.fields(obj):
                v = getattr(obj, f.name)
                if isinstance(v, np.ndarray):
                    totals[owner] += v.nbytes
                elif dataclasses.is_dataclass(v) and not isinstance(v, type):
                    walk(v)

        for scheme in self._schemes.values():
            walk(scheme)
        return totals

    def summary(self, op_walls):
        """Per-op layer figures for the ops in `op_walls` (op id -> wall s).

        Calls and counters are averaged over ops; self times and the harness
        share are medians over ops. Self time is a span's duration minus the
        durations of its direct children.
        """
        ops = list(op_walls)
        n = len(ops)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(lambda: defaultdict(float))
        covered = defaultdict(float)
        flag_calls = defaultdict(int)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            dur = end - start
            calls[(op, name)] += 1
            self_s[name][op] += dur - child[i]
            if parent < 0:
                covered[op] += dur
            if name.startswith("flag.flag_") and self._under_flaglet(parent):
                flag_calls[op] += 1

        out = {}
        for name in FUNCTIONS:
            out[name + ".calls"] = sum(calls[(op, name)] for op in ops) / n
            out[name + ".self_s"] = statistics.median(
                self_s[name].get(op, 0.0) for op in ops)
        for name in SETUP_BUILDERS:
            out[name + ".setup_self_s"] = self_s[name].get(SETUP_OP, 0.0)
        out["sht.points"] = self._per_op("sht.points", ops)
        out["ballfile.bytes"] = self._per_op("ballfile.bytes", ops)
        out["flaglet.flag_calls"] = sum(flag_calls[op] for op in ops) / n
        samples = sum(self._counts[(op, "denoise.samples")] for op in ops)
        kept = sum(self._counts[(op, "denoise.kept")] for op in ops)
        out["denoise.kept_frac"] = kept / samples if samples else 0.0
        tables = self.table_bytes()
        out["sht.table_bytes"] = float(tables.get("sht", 0))
        out["laguerre.table_bytes"] = float(tables.get("laguerre", 0))
        out["harness.self_s"] = statistics.median(
            op_walls[op] - covered[op] - self._hook_s[op] for op in ops)
        return out

    def _per_op(self, counter, ops):
        return sum(self._counts[(op, counter)] for op in ops) / len(ops)

    def _under_flaglet(self, idx):
        while idx >= 0:
            if self.spans[idx][0].startswith("flaglet."):
                return True
            idx = self.spans[idx][3]
        return False

    def dump(self):
        """Spans as JSON-ready rows with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[name, start - t0, end - t0, parent, op]
                for name, start, end, parent, op in self.spans]
