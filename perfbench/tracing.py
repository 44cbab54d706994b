"""Spans recorded around calls into the library's layers.

A span has a name, a start, an end, a parent (the index of the span it
opened inside, or -1) and optional attrs: a dict of numbers a wrapper
measured on the call's result. Spans are numbered in the order they open, so
a parent always precedes its children. They are kept in memory, one column
per field, so that recording adds no garbage-collected object per span, and
are written out at the end of the run. Wrappers are installed on module
attributes at the name the caller looks up (for example
``trainer.sample_view``, or ``tensor.matmul`` as reached through
``T.matmul``) and are removed again by ``restore``. Only the benchmark's own
files install them; the library is never edited.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

STEP = "trainer.step"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.errors: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __len__(self):
        return len(self.names)

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        idx = self.begin(name)
        try:
            yield
        except BaseException:
            self.errors[layer] += 1
            raise
        finally:
            self.end(idx)

    def wrap(self, fn, name: str, layer: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.end(idx)
            if on_result is not None:
                self.attrs[idx] = on_result(args, out)
            return out
        return traced

    def patch(self, owner, attr: str, name: str, layer: str, on_result=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by a traced wrapper.
        on_result(args, result) may return a dict of numbers kept on the
        span. An attribute the library no longer has is noted, not an error:
        its metrics then read 0."""
        is_map = isinstance(owner, dict)
        original = owner.get(attr) if is_map else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        wrapped = self.wrap(original, name, layer, on_result)
        if is_map:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original, is_map))

    def restore(self) -> None:
        for owner, attr, original, is_map in reversed(self._restore):
            if is_map:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "names": table,
                "name": [index[n] for n in self.names],
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
                "attrs": {str(i): a for i, a in self.attrs.items()},
            }, f, separators=(",", ":"))


def self_times(tr: Tracer) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Children run inside their parent on one thread and do not overlap, so
    their durations add up to the part of the parent they cover."""
    dur = [e - s for s, e in zip(tr.starts, tr.ends)]
    out = list(dur)
    for d, p in zip(dur, tr.parents):
        if p >= 0:
            out[p] -= d
    return out


def enclosing(tr: Tracer, name: str) -> list[int]:
    """For each span, the index of the nearest span called `name` that
    contains it (itself included), or -1."""
    out = [-1] * len(tr)
    for i, (n, p) in enumerate(zip(tr.names, tr.parents)):
        if n == name:
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return out


class Summary:
    """Aggregates over the spans inside training steps, and over all spans."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.self_s = self_times(tr)
        step_of = enclosing(tr, STEP)
        self.steps = [i for i, n in enumerate(tr.names) if n == STEP]
        self.in_step_dur: dict[str, float] = defaultdict(float)
        self.in_step_self: dict[str, float] = defaultdict(float)
        self.in_step_calls: dict[str, int] = defaultdict(int)
        self.in_step_attrs: dict[str, float] = defaultdict(float)   # "name.key"
        # per step: the summed self time of every span inside it, the step included
        self.step_self_sum: dict[int, float] = defaultdict(float)
        for i, st in enumerate(step_of):
            if st < 0:
                continue
            self.step_self_sum[st] += self.self_s[i]
            if i == st:
                continue
            name = tr.names[i]
            self.in_step_dur[name] += tr.ends[i] - tr.starts[i]
            self.in_step_self[name] += self.self_s[i]
            self.in_step_calls[name] += 1
            for key, value in tr.attrs.get(i, {}).items():
                self.in_step_attrs[f"{name}.{key}"] += value

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def per_step(self, table: dict, name: str) -> float:
        return table.get(name, 0) / self.num_steps if self.steps else 0.0

    def durations(self, name: str) -> list[float]:
        tr = self.tr
        return [e - s for n, s, e in zip(tr.names, tr.starts, tr.ends) if n == name]

    def unattributed(self) -> list[float]:
        """Per step, the part of the step no child span covers."""
        return [self.self_s[i] for i in self.steps]

    def step_sum_errors(self) -> list[float]:
        """Per step, |sum of self times inside it - its duration|; zero up to
        rounding when the self-time arithmetic is right."""
        tr = self.tr
        return [abs(self.step_self_sum[i] - (tr.ends[i] - tr.starts[i])) for i in self.steps]
