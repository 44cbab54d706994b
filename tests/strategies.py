"""Hypothesis strategies shared by the property tests."""
import numpy as np
from hypothesis import strategies as st

from groupcontrast.graphs import Graph


@st.composite
def valid_graphs(draw, max_nodes=9, feature_dim=3, features=None):
    """Edgeless, complete or random graphs of 1 to max_nodes nodes, each
    pair stored as (u, v) or (v, u), with distinct random feature rows, or
    with every feature drawn from the `features` strategy when given."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shape = draw(st.sampled_from(("edgeless", "complete", "random")))
    if shape == "edgeless" or not pairs:
        chosen = []
    elif shape == "complete":
        chosen = pairs
    else:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = tuple((v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips))
    if features is None:
        feats = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(
            (n, feature_dim))
    else:
        size = n * feature_dim
        feats = np.array(draw(st.lists(features, min_size=size, max_size=size)),
                         dtype=np.float64).reshape(n, feature_dim)
    label = draw(st.none() | st.integers(0, 3))
    return Graph(n, feats, edges, label)
