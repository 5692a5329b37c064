"""renderer.pixel_rng pinned bit for bit against numpy's Philox generator."""

import numpy as np
import pytest

from minerf import renderer as rd
from minerf.errors import UsageError

PIXEL_TAG = 0x706978  # last word of the renderer's per-pixel Philox counter


def _numpy_generator(key, step, frame, pixel):
    return np.random.Generator(np.random.Philox(
        key=key, counter=np.array([step, frame, pixel, PIXEL_TAG], dtype=np.uint64)))


def _numpy_draws(key, step, frame, pixels, n):
    return np.stack([_numpy_generator(key, step, frame, p).random(n) for p in pixels])


@pytest.mark.parametrize("n", [1, 3, 4, 7, 13, 48, 64])
def test_pixel_rng_matches_numpy_philox(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        key = rng.integers(0, 2**64, size=2, dtype=np.uint64)
        step, frame = (int(x) for x in rng.integers(0, 2**63, size=2))
        pixels = rng.integers(0, 2**40, size=5)
        assert np.array_equal(rd.pixel_rng(key, step, frame, pixels, n),
                              _numpy_draws(key, step, frame, pixels, n))


@pytest.mark.parametrize("step", [2**64 - 2, 2**64 - 1])
def test_pixel_rng_carries_out_of_the_low_counter_word(step):
    key = rd.philox_key(3)
    pixels = [0, 1, 1023]
    got = rd.pixel_rng(key, step, 7, pixels, 13)
    assert np.array_equal(got, _numpy_draws(key, step, 7, pixels, 13))


def test_pixel_rng_splits_into_coarse_then_fine_draws():
    """A ray's coarse and fine draws are the two halves of one contiguous stream."""
    key = rd.philox_key(0)
    g = _numpy_generator(key, 4, 2, 9)
    coarse, fine = g.random(6), g.random(7)
    both = rd.pixel_rng(key, 4, 2, [9], 13)[0]
    assert np.array_equal(both[:6], coarse) and np.array_equal(both[6:], fine)


def test_pixel_rng_rejects_a_frame_word_overflow():
    with pytest.raises(UsageError):
        rd.pixel_rng(rd.philox_key(0), 2**64 - 1, 2**64 - 1, [0], 4)


def test_pixel_rng_on_a_subset_of_pixels_draws_those_rows_of_the_full_call():
    """Ground truth draws only for the rays that cross the support box."""
    key = rd.philox_key(5)
    pixels = np.arange(1024)
    full = rd.pixel_rng(key, 0, 7, pixels, 64)
    for keep in (pixels[::3], pixels[[5, 6, 1023]], pixels[:0]):
        assert np.array_equal(rd.pixel_rng(key, 0, 7, keep, 64), full[keep])
