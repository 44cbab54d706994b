from hypothesis import settings

# one profile for every property test: a fixed example budget, no per-example
# deadline (gradchecks are slow on a loaded machine), and the same examples
# on every run
settings.register_profile("tier1", max_examples=20, deadline=None, derandomize=True)
settings.load_profile("tier1")
