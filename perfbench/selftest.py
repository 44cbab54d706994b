"""Self-test of the span and self-time arithmetic.

Synthetic nested spans on a scripted clock must give known self times, the
self times inside a step must add up to the step, and a wrapper must count
an error, close its span and be removable. Run standalone with
``python3 perfbench/selftest.py``; every benchmark run also calls
``failures()`` as one of its correctness checks.
"""
from __future__ import annotations

import sys
import types

from tracing import STEP, Summary, Tracer, enclosing, self_times


def _scripted(times):
    it = iter(times)
    return lambda: next(it)


def failures() -> list[str]:
    out: list[str] = []

    def expect(label, got, want):
        if abs(got - want) > 1e-12:
            out.append(f"{label}: got {got}, want {want}")

    # step [0, 10] > a [1, 4] > b [2, 3];  step > c [5, 9];  d [11, 12] outside
    tr = Tracer(clock=_scripted([0, 1, 2, 3, 4, 5, 9, 10, 11, 12]))
    step = tr.begin(STEP)
    a = tr.begin("a")
    b = tr.begin("b")
    tr.end(b)
    tr.end(a)
    c = tr.begin("c")
    tr.end(c)
    tr.end(step)
    d = tr.begin("d")
    tr.end(d)
    selfs = self_times(tr)
    for label, idx, want in (("step", step, 3), ("a", a, 2), ("b", b, 1),
                             ("c", c, 4), ("d", d, 1)):
        expect(f"self time of {label}", selfs[idx], want)
    if enclosing(tr, STEP) != [step, step, step, step, -1]:
        out.append(f"enclosing steps wrong: {enclosing(tr, STEP)}")

    summary = Summary(tr)
    expect("unattributed", summary.unattributed()[0], 3)
    expect("step self-time sum error", summary.step_sum_errors()[0], 0)
    expect("a per step, inclusive", summary.per_step(summary.in_step_dur, "a"), 3)
    expect("a per step, self", summary.per_step(summary.in_step_self, "a"), 2)
    expect("d per step (outside any step)", summary.per_step(summary.in_step_dur, "d"), 0)

    # a wrapper counts the error, closes its span and restores cleanly
    def boom():
        raise ValueError("boom")

    mod = types.SimpleNamespace(boom=boom)
    table = {"k": boom}
    tr = Tracer(clock=_scripted([0, 1, 2, 3]))
    tr.patch(mod, "boom", "m.boom", "m")
    tr.patch(table, "k", "m.k", "m")
    tr.patch(mod, "gone", "m.gone", "m")
    for call in (mod.boom, table["k"]):
        try:
            call()
        except ValueError:
            pass
        else:
            out.append("wrapped call swallowed the error")
    if tr.errors["m"] != 2 or tr._stack or tr.ends != [1, 3]:
        out.append(f"error accounting wrong: errors={dict(tr.errors)} stack={tr._stack}")
    if tr.missing != ["SimpleNamespace.gone"]:
        out.append(f"missing attributes not noted: {tr.missing}")
    tr.restore()
    if mod.boom is not boom or table["k"] is not boom:
        out.append("restore did not put the originals back")
    return out


if __name__ == "__main__":
    found = failures()
    for line in found:
        print("FAIL", line)
    print("selftest:", "ok" if not found else f"{len(found)} failure(s)")
    sys.exit(1 if found else 0)
