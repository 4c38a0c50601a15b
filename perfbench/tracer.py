"""In-memory spans around the public functions of each kappacov module.

The tracer wraps each function in ``TRACED`` and rebinds every name that
callers look up (``inference.pairwise_tables``, ``estimators.compute_ustats``
and so on) to the wrapper, so spans are recorded without touching the
program's files.  A span holds its name, start, end, parent, op id and the
peak of memory traced by ``tracemalloc`` above the level at its start.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

TRACED = (
    "cli.run",
    "core.load_sample",
    "estimators.estimate",
    "estimators.delta1_plugin",
    "estimators.rho_estimates",
    "ustats.compute_ustats",
    "ustats.pairwise_tables",
    "ustats.bundle_for_permutation",
    "spectral.empirical_marginal",
    "spectral.kernel_eigenvalues",
    "spectral.null_limit_model",
    "spectral.null_pvalue",
    "samplers.sample_family",
    "samplers._draw",
    "inference.independence_test",
    "inference.power_study",
)

OP = "op"

# Span fields, stored as lists to keep the hot path cheap.
NAME, START, END, PARENT, OP_ID, PEAK = range(6)


class Tracer:
    """Records nested spans while ``installed``.

    With ``memory`` on, each span also records its tracemalloc peak.
    That slows allocation-heavy Python code several-fold, so timings and
    peaks come from separate traced ops.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._max: list[int] = []  # running traced-memory maximum per open span
        self._base: list[int] = []
        self.op_id = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._max:
                self._max[-1] = max(self._max[-1], peak)
            tracemalloc.reset_peak()
            self._base.append(current)
            self._max.append(current)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id, 0])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            top = max(self._max.pop(), tracemalloc.get_traced_memory()[1])
            span[PEAK] = top - self._base.pop()
            if self._max:
                self._max[-1] = max(self._max[-1], top)
            tracemalloc.reset_peak()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; spans inside carry its id."""
        self.op_id = op_id
        index = self._open(OP)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every kappacov name bound to a traced function, with
        tracemalloc on if spans record memory; restore both on exit."""
        wrappers = {}
        for qualified in TRACED:
            module_name, func_name = qualified.split(".")
            func = getattr(importlib.import_module(f"kappacov.{module_name}"), func_name)
            wrappers[id(func)] = (func, self._wrap(qualified, func))
        patched = []
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] != "kappacov":
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and value is entry[0]:
                    patched.append((module, attr, value))
                    setattr(module, attr, entry[1])
        if self.memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def adopt(self, child_spans: list[list]) -> None:
        """Append spans recorded in a child process under the open span."""
        parent = self._stack[-1]
        offset = len(self.spans)
        for span in child_spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + offset
            span[OP_ID] = self.op_id
            self.spans.append(span)


FIELDS = ["name", "start", "end", "parent", "op", "peak_bytes"]


def dump(path, **span_lists) -> None:
    """Write named span lists as one JSON object."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": FIELDS, **span_lists}, handle)


def summarize(spans: list[list]) -> dict:
    """Per-op totals for each span name, self time net of direct children.

    Returns ``{"ops": int, "op_s": [durations], "layers": {name: {calls,
    busy_s, self_s, peak_mb}}}`` with calls, busy and self divided by the
    number of ops, and peak_mb the largest span peak.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    op_s = [s[END] - s[START] for s in spans if s[NAME] == OP]
    ops = max(1, len(op_s))
    layers: dict[str, dict] = {}
    for span, children in zip(spans, child_time):
        if span[NAME] == OP:
            continue
        entry = layers.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "peak_mb": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - children
        entry["peak_mb"] = max(entry["peak_mb"], span[PEAK] / 1e6)
    for entry in layers.values():
        entry["calls"] /= ops
        entry["busy_s"] /= ops
        entry["self_s"] /= ops
    return {"ops": len(op_s), "op_s": op_s, "layers": layers}
