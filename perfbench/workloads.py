"""Workload table and the seeded input generator.

The generator is the benchmark's own, so a change to the library's
synthetic-data code cannot change what the benchmark measures. It writes the
library's JSONL dataset format (fields n, x, e, y), and the program under
test only ever sees that file.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Training length scales with --seconds: this many optimizer steps per second
# of budget, rounded up to whole epochs. At --seconds 20 every workload runs
# at least 100 steps, so at least ten of them lie beyond the p90.
STEPS_PER_SECOND = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_graphs: int
    nodes_per_graph: int
    feature_dim: int
    # RunConfig fields other than epochs; epochs follow from --seconds
    config: dict = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        return self.config.get("batch_size", 128)

    def steps_per_epoch(self) -> int:
        return self.num_graphs // self.batch_size

    def epochs_for(self, seconds: int) -> int:
        return max(1, math.ceil(STEPS_PER_SECOND * seconds / self.steps_per_epoch()))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="groupcl-default",
            why="the default GroupCL config users run; tape overhead, augmentation "
                "and per-group loops dominate",
            num_graphs=512, nodes_per_graph=14, feature_dim=8,
            config={"pipeline": "groupcl", "batch_size": 128},
        ),
        Workload(
            name="groupcl-large",
            why="the same config on 40-node graphs; the dense NxN adjacency and its "
                "matmul dominate time and memory",
            num_graphs=192, nodes_per_graph=40, feature_dim=8,
            config={"pipeline": "groupcl", "batch_size": 64},
        ),
        Workload(
            name="groupig-param",
            why="GroupIG with the parameterized CLUB: no augmentation, node-wise JS, "
                "a p^2 CLUB loop and a second tape per step",
            num_graphs=512, nodes_per_graph=14, feature_dim=8,
            config={"pipeline": "groupig", "estimator": "param", "batch_size": 128},
        ),
    )
}

# The traffic of the library's own planted-motif generator
# (groupcontrast.graphs.generate_planted_motif_dataset, what `gen-data`
# writes): every graph gets round(0.15 * n(n-1)/2) background edges, drawn
# without replacement, before the motif is planted.
BACKGROUND_DENSITY = 0.15
_NOISE_SIGMA = 0.01


def _graph_record(rng: random.Random, label: int, n: int, feature_dim: int) -> dict:
    """One graph with a planted motif: a 4-clique for label 0, an induced
    6-cycle for label 1, on a fixed number of random background edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(rng.sample(pairs, round(BACKGROUND_DENSITY * len(pairs))))
    motif = sorted(rng.sample(range(n), 4 if label == 0 else 6))
    pairs = [(a, b) for i, a in enumerate(motif) for b in motif[i + 1:]]
    if label == 0:
        edges.update(pairs)
    else:
        edges.difference_update(pairs)
        for i, u in enumerate(motif):
            v = motif[(i + 1) % len(motif)]
            edges.add((min(u, v), max(u, v)))
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    x = []
    for v in range(n):
        row = [rng.gauss(0.0, _NOISE_SIGMA) for _ in range(feature_dim)]
        row[min(degree[v], feature_dim - 1)] += 1.0
        x.extend(row)
    return {"n": n, "x": x, "e": [i for uv in sorted(edges) for i in uv], "y": label}


def write_inputs(workload: Workload, seed: int, path) -> None:
    """Write the workload's dataset for `seed` as JSONL; same seed, same bytes."""
    rng = random.Random(f"{workload.name}/{seed}")
    with open(path, "w", encoding="utf-8") as f:
        for i in range(workload.num_graphs):
            rec = _graph_record(rng, i % 2, workload.nodes_per_graph, workload.feature_dim)
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")
