import numpy as np
import pytest

from groupcontrast.seeding import stream_rng


def test_same_key_same_draws():
    a = stream_rng(11, "augment", 3, 1).random(8)
    b = stream_rng(11, "augment", 3, 1).random(8)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    draws = {name: stream_rng(0, name).random() for name in
             ("data", "init", "augment", "shuffle", "probe")}
    assert len(set(draws.values())) == len(draws)


def test_key_indices_matter():
    assert stream_rng(0, "shuffle", 0).random() != stream_rng(0, "shuffle", 1).random()


def test_unknown_stream_rejected():
    with pytest.raises(ValueError):
        stream_rng(0, "weights")
