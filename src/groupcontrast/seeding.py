"""Named deterministic random streams derived from one run seed."""
from __future__ import annotations

import numpy as np

# Every source of randomness in the engine draws from one of these streams,
# keyed by (run seed, stream id, extra indices such as epoch/batch).
_STREAMS = {
    "data": 0,
    "init": 1,
    "augment": 2,
    "shuffle": 4,
    "probe": 5,
}


def stream_rng(seed: int, name: str, *key: int) -> np.random.Generator:
    """The stream ``name`` of run ``seed``, indexed by ``key``. The seed and
    keys must be integers: a float or a bool is rejected, never truncated."""
    if name not in _STREAMS:
        raise ValueError(f"unknown rng stream {name!r}")
    for value in (seed, *key):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"rng seeds and keys must be integers, got {value!r}")
    ss = np.random.SeedSequence(int(seed), spawn_key=(_STREAMS[name], *map(int, key)))
    return np.random.default_rng(ss)
