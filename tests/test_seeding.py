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


@pytest.mark.parametrize("seed, key", [(1.5, ()), (True, ()), ("1", ()), (1, (2.0,)), (1, (False,))])
def test_non_integer_seed_or_key_rejected(seed, key):
    with pytest.raises(TypeError, match="must be integers"):
        stream_rng(seed, "probe", *key)


def test_numpy_integer_seed_same_draws():
    assert stream_rng(np.int64(3), "shuffle", np.int32(2)).random() == \
        stream_rng(3, "shuffle", 2).random()
