import inspect
import tracemalloc
import warnings

import pytest
from hypothesis import settings

from groupcontrast import tensor as T

# On a failing property test, hypothesis's pytest plugin imports its patch
# writer, which imports libcst, which imports the deprecated
# mypy_extensions.TypedDict. Under the suite's error::DeprecationWarning
# filter that warning aborts the session before the falsifying example is
# printed, so import the patch writer once here with only that warning
# ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# one profile for every property test: a fixed example budget, no per-example
# deadline (gradchecks are slow on a loaded machine), and the same examples
# on every run
settings.register_profile("tier1", max_examples=20, deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def traced_peak():
    """A function that runs fn() under tracemalloc and returns the peak of
    the bytes it held above what was allocated before it. The caller runs
    any first-call set-up (caches, lazy plans) beforehand."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return peak


def op_peak(fn) -> tuple[int, str]:
    """Run fn() under tracemalloc, as ``traced_peak`` does, and return its
    peak and where the peak sits: ``"<op> forward"`` or ``"<op> backward"``
    for a public op of ``tensor``, ``"backward walk"`` for backward's own
    gradient sums, ``"outside ops"`` for the code between ops.

    Every public op and each vjp it records is wrapped to read the peak
    since the last reading, charge it to the op, nested or not, that ran in
    that interval, and reset the peak. An op's arrays that stay alive until
    it returns are charged to its forward. The wrappers' own closures count
    too, a few hundred bytes an op."""
    names: list[str] = []       # the ops running forward, innermost last
    peaks: dict[str, int] = {}

    def mark(label):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > peaks.get(label, -1):
            peaks[label] = peak
        tracemalloc.reset_peak()

    def forward(name, op):
        def run(*args, **kwargs):
            mark(f"{names[-1]} forward" if names else "outside ops")
            names.append(name)
            try:
                return op(*args, **kwargs)
            finally:
                names.pop()
                mark(f"{name} forward")
        return run

    def backward_of(name, vjp):
        def run(g):
            mark("backward walk")
            gi = vjp(g)
            mark(f"{name} backward")
            return gi
        # the wrapper keeps an owned vjp's mark, so backward sums as unprobed
        return T._owned(run) if getattr(vjp, "owned", False) else run

    result = T._result

    def recorded(op, out, parents, moves_only=False):
        name = names[-1] if names else op
        return result(op, out, [(t, backward_of(name, vjp)) for t, vjp in parents], moves_only)

    ops = [name for name, f in vars(T).items() if inspect.isfunction(f)
           and f.__module__ == T.__name__ and not name.startswith("_") and name != "backward"]
    with pytest.MonkeyPatch.context() as patch:
        for name in ops:
            patch.setattr(T, name, forward(name, getattr(T, name)))
        patch.setattr(T, "_result", recorded)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            mark("outside ops")
        finally:
            tracemalloc.stop()
    where, peak = max(peaks.items(), key=lambda kv: kv[1])
    return peak - base, where


@pytest.fixture
def op_peaks():
    """A function that runs fn() under tracemalloc and returns its peak and
    the op holding it, as ``op_peak``. The caller runs any first-call set-up
    beforehand."""
    return op_peak
