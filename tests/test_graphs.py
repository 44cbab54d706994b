import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from groupcontrast.graphs import (Batch, Dataset, DatasetFormatError, Graph,
                                  GraphError, batch_graphs,
                                  generate_planted_motif_dataset,
                                  graph_to_record, load_dataset, save_dataset)
from strategies import valid_graphs


def triangle():
    return Graph(num_nodes=3, node_features=np.eye(3)[:, :2],
                 edges=((0, 1), (1, 2), (2, 0)), label=0)


# -- Graph validation ---------------------------------------------------------

def test_graph_rejects_out_of_range_edge():
    with pytest.raises(GraphError):
        Graph(num_nodes=3, node_features=np.zeros((3, 2)), edges=((0, 5),))


def test_graph_rejects_self_loop_and_duplicate():
    with pytest.raises(GraphError):
        Graph(num_nodes=3, node_features=np.zeros((3, 2)), edges=((1, 1),))
    with pytest.raises(GraphError):
        Graph(num_nodes=3, node_features=np.zeros((3, 2)), edges=((0, 1), (1, 0)))


def test_graph_rejects_zero_nodes():
    with pytest.raises(GraphError, match="graph must have at least one node"):
        Graph(num_nodes=0, node_features=np.zeros((0, 2)), edges=())


def test_graph_rejects_bad_features():
    with pytest.raises(GraphError):
        Graph(num_nodes=3, node_features=np.zeros((2, 2)), edges=())
    with pytest.raises(GraphError):
        Graph(num_nodes=1, node_features=np.array([[np.nan]]), edges=())
    with pytest.raises(GraphError, match="no columns"):
        Graph(num_nodes=3, node_features=np.zeros((3, 0)), edges=((0, 1),))


def test_graph_rejects_non_integer_endpoints():
    # floats, strings and None, then a triple and a ragged pair list
    for bad in (((0, 1.7),), ((0, "1"),), ((0, None),), ((0, 1, 2),), ((0, 1), (2,))):
        with pytest.raises(GraphError, match="integers"):
            Graph(num_nodes=3, node_features=np.zeros((3, 2)), edges=bad)
    g = Graph(num_nodes=3, node_features=np.zeros((3, 2)), edges=((np.int64(0), 2),))
    assert g.edges.dtype == np.intp and g.edges.tolist() == [[0, 2]]


def loop_reference_accepts(n, pairs):
    seen = set()
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        if not (0 <= u < n and 0 <= v < n) or u == v or key in seen:
            return False
        seen.add(key)
    return True


@given(g=valid_graphs(), fault=st.sampled_from(("none", "range", "loop", "duplicate")),
       data=st.data())
def test_edge_validation_matches_loop_reference(g, fault, data):
    # a valid pair list with at most one bad pair inserted anywhere
    n, pairs = g.num_nodes, [tuple(p) for p in g.edges.tolist()]
    node = st.integers(0, n - 1)
    if fault == "range":
        pairs.insert(data.draw(st.integers(0, len(pairs))),
                     (data.draw(node), data.draw(st.sampled_from((-1, n)))))
    elif fault == "loop":
        pairs.insert(data.draw(st.integers(0, len(pairs))), (data.draw(node),) * 2)
    elif fault == "duplicate" and pairs:
        u, v = data.draw(st.sampled_from(pairs))
        pairs.insert(data.draw(st.integers(0, len(pairs))), data.draw(st.sampled_from(((u, v), (v, u)))))
    if loop_reference_accepts(n, pairs):
        assert Graph(n, np.zeros((n, 1)), tuple(pairs)).edges.tolist() == [list(p) for p in pairs]
    else:
        with pytest.raises(GraphError):
            Graph(n, np.zeros((n, 1)), tuple(pairs))


# -- batching -----------------------------------------------------------------

def test_batch_preserves_graphs():
    rng = np.random.default_rng(0)
    gs = [
        Graph(4, rng.standard_normal((4, 3)), ((0, 1), (2, 3)), label=0),
        Graph(2, rng.standard_normal((2, 3)), ((0, 1),), label=1),
        Graph(3, rng.standard_normal((3, 3)), (), label=None),
    ]
    batch = batch_graphs(gs)
    for orig, (lo, hi) in zip(gs, batch.segments):
        inside = (lo <= batch.edges[:, 0]) & (batch.edges[:, 0] < hi)
        assert hi - lo == orig.num_nodes
        assert np.array_equal(batch.edges[inside] - lo, orig.edges)
        assert np.array_equal(batch.features[lo:hi], orig.node_features)


def test_graph_batch_dataset_compare_and_hash_by_identity():
    # ndarray fields have no truth value, so the records compare as objects
    g, twin = triangle(), triangle()
    batch = batch_graphs([g])
    ds = Dataset((g,), feature_dim=g.feature_dim, num_classes=1)
    for obj, other in ((g, twin), (batch, batch_graphs([g])),
                       (ds, Dataset((g,), feature_dim=g.feature_dim, num_classes=1))):
        assert obj == obj and obj != other
        assert len({obj, obj, other}) == 2


def test_batch_offsets_and_segments():
    gs = [triangle(), triangle()]
    b = batch_graphs(gs)
    assert b.segments.tolist() == [[0, 3], [3, 6]]
    assert [3, 4] in b.edges.tolist()
    assert np.array_equal(b.graph_index, [0, 0, 0, 1, 1, 1])


def test_batch_rejects_empty_and_mixed_dims():
    with pytest.raises(GraphError):
        batch_graphs([])
    with pytest.raises(GraphError):
        batch_graphs([triangle(),
                      Graph(2, np.zeros((2, 5)), ())])


def test_batch_edges_block_diagonal():
    b = batch_graphs([triangle(), Graph(1, np.zeros((1, 2)), ()), triangle()])
    # every pair once, in graph order and orientation, and never across graphs
    assert b.edges.dtype == np.intp
    assert b.edges.tolist() == [[0, 1], [1, 2], [2, 0], [4, 5], [5, 6], [6, 4]]
    assert np.array_equal(b.graph_index[b.edges[:, 0]], b.graph_index[b.edges[:, 1]])
    assert np.array_equal(b.graph_index, [0, 0, 0, 1, 2, 2, 2])


def test_edgeless_batch_has_empty_edges():
    b = batch_graphs([Graph(2, np.zeros((2, 2)), ()), Graph(1, np.zeros((1, 2)), ())])
    assert b.edges.shape == (0, 2) and b.edges.dtype == np.intp
    assert np.array_equal(b.graph_index, [0, 0, 1])


# -- file format --------------------------------------------------------------

def test_parse_triangle_record(tmp_path):
    # blank and whitespace-only lines are skipped
    path = tmp_path / "data.jsonl"
    path.write_text('\n \t\n{"n":3,"x":[1,0,0,1,0,0],"e":[0,1,1,2,2,0]}\n\n')
    ds = load_dataset(path)
    assert len(ds) == 1
    g = ds.graphs[0]
    assert g.num_nodes == 3 and g.feature_dim == 2
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 0]]


def test_empty_file_gives_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    ds = load_dataset(path)
    assert len(ds) == 0 and ds.num_classes == 0


def test_out_of_range_edge_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n":3,"x":[0,0,0],"e":[0,1]}\n'
                    '{"n":3,"x":[0,0,0],"e":[0,5]}\n')
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_invalid_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n":3,"x":[0,0,0],"e":[]}\nnot json\n')
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_feature_length_mismatch_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n":3,"x":[0,0,0,0],"e":[]}\n')
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(path)


@pytest.mark.parametrize("record, message", [
    ('{"n":3,"x":[0,0,0],"e":[0,1.7]}', "integers"),     # float endpoint
    ('{"n":3,"x":[0,0,0],"e":["0","1"]}', "integers"),   # string endpoints
    ('{"n":3,"x":[0,0,0],"e":[0,true]}', "integers"),    # boolean endpoint
    ('{"n":true,"x":[0],"e":[]}', "node count"),
    ('{"n":1.0,"x":[0],"e":[]}', "node count"),
    ('{"n":1,"x":[0],"e":[],"y":true}', "label"),
    ('{"n":1,"x":[0],"e":[],"y":1.0}', "label"),
    ('{"n":1,"x":[0],"e":[],"y":-1}', "label"),
    ('{"n":2,"x":["1","2"],"e":[]}', "features"),       # string features
    ('{"n":2,"x":[true,false],"e":[]}', "features"),    # boolean features
    ('{"n":2,"x":[[1],[2]],"e":[]}', "features"),       # nested lists
    ('{"n":2,"x":[1,null],"e":[]}', "features"),
    ('{"n":1,"x":[1' + "0" * 400 + '],"e":[]}', "too large"),  # int beyond float64
    ('[0,1]', "record must carry fields n, x, e"),
    ('{"x":[0],"e":[]}', "record must carry fields n, x, e"),
    ('{"n":1,"e":[]}', "record must carry fields n, x, e"),
    ('{"n":1,"x":[0]}', "record must carry fields n, x, e"),
    ('{"n":2,"x":[0,0,0],"e":[]}', "feature list length 3 not divisible by 2 nodes"),
    ('{"n":2,"x":[0,0],"e":[0,1,1]}', "edge list must hold endpoint pairs"),
    ('{"n":1,"x":[0,0],"e":[]}', "feature dim 2 differs from earlier dim 1"),
    ('{"n":2,"x":[0,0],"e":[0,1],"label":1}', "unknown field 'label'"),  # not "y"
])
def test_bad_record_names_line(tmp_path, record, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n":2,"x":[0,0],"e":[0,1],"y":0}\n' + record + "\n")
    with pytest.raises(DatasetFormatError, match=f"line 2: .*{message}"):
        load_dataset(path)


@pytest.mark.parametrize("record", [
    '{"n":1000000000,"x":[],"e":[]}',    # 10^9 nodes that no data holds
    '{"n":3,"x":[],"e":[0,1,1,2]}',      # a graph with nothing to learn from
])
def test_record_without_feature_columns_names_its_line(tmp_path, record):
    # with no columns, len(x) % n == 0 held for every n: four records of
    # 10^9 nodes loaded, and training them ran out of memory
    path = tmp_path / "bad.jsonl"
    path.write_text((record + "\n") * 4)
    with pytest.raises(DatasetFormatError, match="line 1: feature matrix has no columns"):
        load_dataset(path)


def test_save_load_roundtrip(tmp_path):
    ds = generate_planted_motif_dataset(7, 10, 9, 5)
    path = tmp_path / "ds.jsonl"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert len(back) == len(ds)
    for a, b in zip(ds.graphs, back.graphs):
        assert np.array_equal(a.edges, b.edges) and a.label == b.label
        assert np.allclose(a.node_features, b.node_features)


EDGE_FLOATS = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1]


@given(graphs=st.lists(valid_graphs(features=st.sampled_from(EDGE_FLOATS)
                                    | st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=4))
@example(graphs=[Graph(2, np.reshape(EDGE_FLOATS, (2, 3)), ((1, 0),)),
                 Graph(3, np.zeros((3, 3)), ((2, 1), (0, 1)), label=3)])
def test_save_load_roundtrip_property(graphs):
    # features bit for bit (-0.0, subnormals, +-1e308), edges in stored order
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.jsonl"
        save_dataset(path, Dataset(graphs=graphs, feature_dim=3, num_classes=4))
        back = load_dataset(path)
    assert len(back) == len(graphs)
    for a, b in zip(graphs, back.graphs):
        assert b.num_nodes == a.num_nodes and b.label == a.label
        assert b.node_features.tobytes() == a.node_features.tobytes()
        assert b.edges.dtype == np.intp and b.edges.shape == (len(a.edges), 2)
        assert np.array_equal(b.edges, a.edges)


def test_dataset_rejects_mixed_widths_and_out_of_range_label():
    g = Graph(2, np.zeros((2, 2)), ((0, 1),), label=1)
    with pytest.raises(GraphError, match="graph feature dim 2 != dataset dim 3"):
        Dataset((g,), feature_dim=3, num_classes=2)
    with pytest.raises(GraphError, match=r"label 1 outside \[0, 1\)"):
        Dataset((g,), feature_dim=2, num_classes=1)


def test_record_omits_missing_label():
    g = Graph(2, np.zeros((2, 2)), ((0, 1),))
    assert '"y"' not in graph_to_record(g)


# -- planted-motif generator --------------------------------------------------

def has_4_clique(g: Graph) -> bool:
    adj = {frozenset(e) for e in g.edges}
    for quad in itertools.combinations(range(g.num_nodes), 4):
        if all(frozenset(p) in adj for p in itertools.combinations(quad, 2)):
            return True
    return False


def has_induced_6_cycle(g: Graph) -> bool:
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    for six in itertools.combinations(range(g.num_nodes), 6):
        sub = a[np.ix_(six, six)]
        if not np.all(sub.sum(axis=0) == 2):
            continue
        # degree-2 everywhere: a single 6-cycle iff connected
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in np.flatnonzero(sub[v]):
                if u not in seen:
                    seen.add(int(u))
                    frontier.append(int(u))
        if len(seen) == 6:
            return True
    return False


def test_generator_balanced_classes():
    ds = generate_planted_motif_dataset(7, 40, 12, 8)
    labels = [g.label for g in ds.graphs]
    assert (labels.count(0), labels.count(1)) == (20, 20)


def test_generator_deterministic(tmp_path):
    a, b = (generate_planted_motif_dataset(7, 16, 10, 6) for _ in range(2))
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(pa, a)
    save_dataset(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


def test_generator_plants_motifs():
    ds = generate_planted_motif_dataset(7, 40, 12, 8)
    for g in ds.graphs:
        if g.label == 0:
            assert has_4_clique(g)
        else:
            assert has_induced_6_cycle(g)


def test_generator_parameter_bounds():
    with pytest.raises(GraphError):
        generate_planted_motif_dataset(0, 11, 12, 8)   # odd count
    with pytest.raises(GraphError, match="positive"):
        generate_planted_motif_dataset(0, -4, 12, 8)   # negative count
    with pytest.raises(GraphError):
        generate_planted_motif_dataset(0, 10, 7, 8)    # too few nodes
    with pytest.raises(GraphError):
        generate_planted_motif_dataset(0, 10, 12, 3)   # too few features
