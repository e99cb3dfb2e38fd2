import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seritree import rng as rng_module
from seritree.rng import GOLDEN, MASK64, CounterRng, drive_blocks, lemire, mix64, splitmix64, stream_seed


def test_same_seed_same_stream():
    a = CounterRng(1234)
    b = CounterRng(1234)
    assert [a.u64() for _ in range(100)] == [b.u64() for _ in range(100)]


def test_stream_is_pure_function_of_counter():
    # consuming through different convenience methods must not change words
    a = CounterRng(99)
    words = [a.u64() for _ in range(6)]
    b = CounterRng(99)
    assert b.u64() == words[0]
    assert b.random() == (words[1] >> 11) * 2.0**-53
    b.u64()
    b.u64()
    assert b.u64() == words[4]


def test_counter_tracks_consumption():
    rng = CounterRng(5)
    assert rng.counter == 0
    rng.u64()
    assert rng.counter == 1
    for _ in range(5000):  # crosses a buffer refill
        rng.u64()
    assert rng.counter == 5001


def test_refills_grow_with_consumption(monkeypatch):
    # a fresh stream computes 64 words, not 4096, to serve its first draw
    sizes = []

    def counting(seed, start, count):
        sizes.append(count)
        return splitmix64(seed, start, count)

    monkeypatch.setattr(rng_module, "splitmix64", counting)
    rng = CounterRng(5)
    words = [rng.u64() for _ in range(10000)]
    assert sizes == [64, 64, 128, 256, 512, 1024, 2048, 4096, 4096]
    assert words == splitmix64(5, 0, 10000).tolist()
    assert rng.counter == 10000


def test_mix64_is_bijective_on_samples():
    seen = {mix64(x) for x in range(10000)}
    assert len(seen) == 10000


def test_stream_seeds_differ():
    seeds = {stream_seed(42, r) for r in range(1000)}
    assert len(seeds) == 1000
    with pytest.raises(ValueError):
        stream_seed(42, -1)


def test_spawn_independent_streams():
    parent = CounterRng(7)
    child0 = parent.spawn(0)
    child1 = parent.spawn(1)
    assert child0.seed != child1.seed
    # spawn does not consume from the parent
    assert parent.counter == 0
    assert CounterRng(7).spawn(0).u64() == child0.u64()


def test_random_in_unit_interval():
    rng = CounterRng(3)
    values = [rng.random() for _ in range(10000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(np.mean(values) - 0.5) < 0.02


def test_exponential_mean():
    rng = CounterRng(4)
    values = [rng.exponential(2.0) for _ in range(20000)]
    assert abs(np.mean(values) - 0.5) < 0.02


@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=MASK64))
def test_randbelow_in_range(bound, seed):
    rng = CounterRng(seed)
    assert 0 <= rng.randbelow(bound) < bound


@pytest.mark.parametrize("rate", [0.0, -1.0, -math.inf, math.inf, math.nan])
def test_exponential_refuses_rates_outside_the_positive_reals(rate):
    # -1 gave a negative time, inf gave 0.0, nan gave nan and 0 raised
    # ZeroDivisionError; each is now refused before a word is drawn
    rng = CounterRng(1)
    with pytest.raises(ValueError, match="rate"):
        rng.exponential(rate)
    assert rng.counter == 0


@pytest.mark.parametrize("before", [0, 1, 63, 64, 65])
def test_words_hand_out_the_stream(before):
    # a loop that reads the buffer itself sees the words u64 would, across
    # refills, and leaves the stream where u64 calls would
    rng, ref = _consume(CounterRng(5), before), _consume(CounterRng(5), before)
    buf, j, end = rng._words(rng._idx)
    words = []
    for _ in range(5000):
        if j == end:
            buf, j, end = rng._words(j)
        words.append(buf[j])
        j += 1
    rng._idx = j
    assert words == [ref.u64() for _ in range(5000)]
    assert rng.counter == ref.counter == before + 5000
    assert rng.u64() == ref.u64()


def test_randbelow_uniformity():
    rng = CounterRng(8)
    n = 60000
    counts = np.bincount([rng.randbelow(6) for _ in range(n)], minlength=6)
    # 5 sigma band for a fair die
    sigma = math.sqrt(n * (1 / 6) * (5 / 6))
    assert np.all(np.abs(counts - n / 6) < 5 * sigma)


def test_randbelow_rejects_nonpositive():
    rng = CounterRng(1)
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_randbelow_refuses_bounds_above_one_word():
    # above 2^64 the rejection threshold is at least 2^64, so the loop never
    # ended; the bound is refused before any word is drawn
    rng = CounterRng(1)
    for n in (2**64 + 1, 2**65, 2**128):
        with pytest.raises(ValueError, match="2\\^64"):
            rng.randbelow(n)
    assert rng.counter == 0
    # 2^64 itself is served exactly: the word is the value
    assert rng.randbelow(2**64) == CounterRng(1).u64()


def test_numpy_rng_deterministic():
    a = CounterRng(10).numpy_rng()
    b = CounterRng(10).numpy_rng()
    assert np.array_equal(a.random(8), b.random(8))


def _consume(rng: CounterRng, words: int) -> CounterRng:
    for _ in range(words):
        rng.u64()
    return rng


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=MASK64),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=5000),
)
def test_splitmix64_block_equals_u64(seed, start, count):
    rng = _consume(CounterRng(seed), start)
    block = splitmix64(seed, start, count)
    assert block.dtype == np.uint64
    assert block.tolist() == [rng.u64() for _ in range(count)]


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=0, max_value=2**48))
def test_splitmix64_far_counter(seed, start):
    # word i is mix64(seed + i * GOLDEN), whatever the counter
    block = splitmix64(seed, start, 3)
    assert block.tolist() == [mix64(seed + i * GOLDEN) for i in range(start + 1, start + 4)]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=MASK64),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=9000),
)
def test_skip_equals_reading(seed, before, count):
    rng = _consume(CounterRng(seed), before)
    ref = _consume(CounterRng(seed), before + count)
    rng.skip(count)
    assert rng.counter == ref.counter
    assert [rng.u64() for _ in range(5000)] == [ref.u64() for _ in range(5000)]


# bounds of every bit length, so each carry of the 32-bit limbs is exercised
_bounds = st.integers(min_value=0, max_value=63).flatmap(
    lambda bits: st.integers(min_value=1 << bits, max_value=(1 << bits + 1) - 1)
)


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=MASK64), _bounds),
    min_size=1, max_size=40,
))
def test_lemire_matches_integer_arithmetic(pairs):
    words = np.array([w for w, _ in pairs], dtype=np.uint64)
    bounds = np.array([b for _, b in pairs], dtype=np.uint64)
    draws, rejected = lemire(words, bounds)
    assert draws.tolist() == [(w * b) >> 64 for w, b in pairs]
    assert rejected.tolist() == [(w * b) & MASK64 < ((1 << 64) - b) % b for w, b in pairs]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=MASK64),
    st.lists(st.integers(min_value=2**63, max_value=MASK64), min_size=1, max_size=400),
    st.integers(min_value=0, max_value=5000),
)
def test_blocked_bounded_draws_equal_randbelow(seed, bounds, drawn):
    # above 2^63 up to half of all words are rejected, so the blocked driver
    # realigns many times; growth bounds are far too small for that
    ref = _consume(CounterRng(seed), drawn)
    expected = [ref.randbelow(b) for b in bounds]
    rng = _consume(CounterRng(seed), drawn)
    caps = np.array(bounds, dtype=np.uint64)
    out = np.zeros(len(bounds), dtype=np.uint64)
    drive_blocks(
        rng, out, 0, 1,
        lambda i, words: lemire(words, caps[i : i + words.size]),
        lambda i: rng.randbelow(bounds[i]),
    )
    assert out.tolist() == expected
    assert rng.counter == ref.counter
