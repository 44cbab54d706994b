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
    if name not in _STREAMS:
        raise ValueError(f"unknown rng stream {name!r}")
    ss = np.random.SeedSequence(int(seed), spawn_key=(_STREAMS[name], *map(int, key)))
    return np.random.default_rng(ss)
