"""In-memory span tracing around calls into the program's public functions.

The tracer replaces a function at the module attribute where its caller
looks it up (for example ``edgemorph.render.stub_ratio_at``, which
``sample_frame`` calls) with a wrapper that records one span per call: name,
start, end, parent span and job id, plus an optional size of the result.
Spans are recorded only while a job is open, so calls made by the
benchmark's own checks between jobs pass straight through. Columns are kept
in flat arrays, because a traced render job makes tens of thousands of
spans, and written out with :meth:`Tracer.save` at exit.

A target whose module or attribute no longer exists is listed in
:attr:`Tracer.absent` and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.job = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.job_kinds: list[str] = []
        self.job_scale: list[float] = []
        self.absent: list[str] = []
        self._open: list[int] = []
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open_span(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._intern(name))
        self.job.append(self._job)
        self.parent.append(self._open[-1] if self._open else -1)
        self.size.append(0.0)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def close_span(self, index: int, size: float = 0.0) -> None:
        self.end[index] = self.clock()
        self.size[index] = size
        self._open.pop()

    def wrap(self, name: str, fn, sized: bool = False):
        """Wrapper recording a span per call; ``sized`` keeps len(result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job < 0:
                return fn(*args, **kwargs)
            index = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close_span(index)
                raise
            self.close_span(index, len(result) if sized else 0.0)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each (span name, module, attribute, sized) target that exists."""
        for name, module_name, attr, sized in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            setattr(module, attr, self.wrap(name, original, sized))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def begin_job(self, kind: str) -> None:
        self._job = len(self.job_kinds)
        self.job_kinds.append(kind)

    def end_job(self, scale: float = 1.0) -> None:
        """Close the job; its self times are multiplied by ``scale``."""
        self._job = -1
        self._open.clear()
        self.job_scale.append(scale)

    def columns(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a view would pin the arrays' size)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            "job": np.frombuffer(self.job, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span, with the name and job-kind tables, as one .npz."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            job_kinds=np.array(self.job_kinds, dtype=str),
            job_scale=np.array(self.job_scale),
            **self.columns(),
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of its interval and their summed durations are the covered part.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


def per_job_totals(tracer: Tracer) -> dict[str, dict[str, dict[str, list[float]]]]:
    """Per span name and job kind: per-job sums of calls, scaled self time (ms) and sizes.

    Kept apart by job kind, because one function can do very different work
    in different jobs (``export_animation`` writes frame files in one and
    builds an animated document in another). Only jobs in which the span
    occurs contribute an entry.
    """
    cols = tracer.columns()
    if len(cols["start"]) == 0:
        return {}
    scale = np.asarray(tracer.job_scale)[cols["job"]]
    own_ms = self_times(cols["parent"], cols["start"], cols["end"]) * scale * 1000.0
    job_kind = np.array(tracer.job_kinds)
    out: dict[str, dict[str, dict[str, list[float]]]] = {}
    for name_id, name in enumerate(tracer.names):
        named = cols["name"] == name_id
        for kind in np.unique(job_kind[cols["job"][named]]):
            mask = named & (job_kind[cols["job"]] == kind)
            jobs = cols["job"][mask]
            index = np.searchsorted(np.unique(jobs), jobs)
            out.setdefault(name, {})[str(kind)] = {
                "calls": np.bincount(index).astype(float).tolist(),
                "ms": np.bincount(index, weights=own_ms[mask]).tolist(),
                "size": np.bincount(index, weights=cols["size"][mask]).tolist(),
            }
    return out
