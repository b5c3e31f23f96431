import numpy as np

from sumnet.rng import SplitMix64, derive, uniform_array, uniform_stack


def test_known_stream():
    # Reference values computed by hand from the published mixer constants:
    # state 0 -> first output mix(0x9E3779B97F4A7C15).
    r = SplitMix64(0)
    first = r.next_u64()
    assert first == 0xE220A8397B1DCDAF


def test_uniform_range_and_determinism():
    a = SplitMix64(123).uniforms(1000)
    b = SplitMix64(123).uniforms(1000)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() < 1.0
    # crude uniformity: mean near 1/2, variance near 1/12
    assert abs(a.mean() - 0.5) < 0.05
    assert abs(a.var() - 1.0 / 12.0) < 0.01


def test_uniforms_matches_sequential():
    r1 = SplitMix64(7)
    batch = r1.uniforms(5, -2.0, 3.0)
    r2 = SplitMix64(7)
    seq = [r2.uniform(-2.0, 3.0) for _ in range(5)]
    assert np.array_equal(batch, np.array(seq))
    # state advanced identically
    assert r1.next_u64() == r2.next_u64()


def test_derive_stable_and_separating():
    assert derive(1, "w") == derive(1, "w")
    assert derive(1, "w") != derive(2, "w")
    assert derive(1, "w") != derive(1, "b")
    assert derive(1, "ab", "c") != derive(1, "a", "bc")


def test_derive_values_are_pinned():
    # the stream seeds of every parameter hang on these: the label-state
    # cache must give the byte-at-a-time FNV-1a fold's values
    for args, want in [((0, "enc0.b0.gate", "weight"), 0x5EFC1BBF3769103A),
                       ((7, "bench-x", 64), 0x31E152D74FC06B99),
                       ((3, "cond", "tokens"), 0x585B4573FC7AAAEF),
                       ((2**64 + 5, "dec3.b0.ssm.col_bwd", "w_delta"), 0x7B976ED6694B2995),
                       ((1,), 0x7F555C6A530FDF81),
                       ((1, "a", "b", "c"), 0xF2512A80A4F6C0D8),
                       ((9, "\u00fcn\u00ef", "field"), 0x472B2AF8BDD02E21)]:
        assert derive(*args) == want, args
        assert derive(*args) == want, args  # again, from the cached label state


def test_uniform_array_shape_and_bytes():
    a = uniform_array((3, 4), -1.0, 1.0, seed=99)
    b = uniform_array((3, 4), -1.0, 1.0, seed=99)
    assert a.shape == (3, 4)
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, uniform_array((3, 4), -1.0, 1.0, seed=100))


def test_uniform_stack_rows_equal_uniform_array():
    seeds = [0, 2**64 - 1, 2**64 + 5]  # the last one is masked to 5
    for shape in [(1,), (3, 5), (4, 8, 3)]:
        stack = uniform_stack(shape, -0.5, 2.0, seeds)
        assert stack.shape == (3, *shape) and stack.dtype == np.float64
        for row, seed in zip(stack, seeds):
            assert row.tobytes() == uniform_array(shape, -0.5, 2.0, seed).tobytes()
        assert stack[2].tobytes() == uniform_array(shape, -0.5, 2.0, 5).tobytes()


def test_shuffle_is_permutation():
    r = SplitMix64(5)
    xs = list(range(20))
    r.shuffle(xs)
    assert sorted(xs) == list(range(20))
    r2 = SplitMix64(5)
    ys = list(range(20))
    r2.shuffle(ys)
    assert xs == ys
