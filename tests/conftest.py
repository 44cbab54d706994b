import warnings

from hypothesis import settings

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
