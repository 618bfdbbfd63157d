"""Substream derivation: re-keying a used generator equals a fresh one."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedamp as fa

# every label type the rule accepts: Python and numpy integers (bool is an
# int) and text
LABELS = st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=6),
                            st.integers(0, 2**62).map(np.int64),
                            st.integers(0, 2**31 - 1).map(np.int32),
                            st.booleans()),
                  max_size=4)


def _old_label_text(label) -> str:
    # the label rule as first written, kept verbatim as the reference
    if isinstance(label, str):
        return label
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"integer stream label must be nonnegative: {label}")
        return str(int(label))
    raise TypeError(f"stream label must be int or str, got {type(label).__name__}")


def _old_substream(seed, *path) -> np.random.Generator:
    text = "/".join([str(int(seed)), *map(_old_label_text, path)])
    digest = hashlib.sha256(text.encode()).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest[:16],
                                                                  dtype=np.uint64)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), path=LABELS)
def test_key_matches_reference_rule(seed, path):
    want = _old_substream(seed, *path).bit_generator.state
    gen = np.random.Generator(np.random.Philox())
    gen.normal(size=3)
    for got in (fa.substream(seed, *path), fa.substream(seed, *path, reuse=gen)):
        state = got.bit_generator.state
        for part in ("counter", "key"):
            np.testing.assert_array_equal(state["state"][part], want["state"][part])
        np.testing.assert_array_equal(state["buffer"], want["buffer"])
        assert [state[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == \
               [want[k] for k in ("buffer_pos", "has_uint32", "uinteger")]
    np.testing.assert_array_equal(fa.substream(seed, *path).normal(size=5),
                                  _old_substream(seed, *path).normal(size=5))


@pytest.mark.parametrize("label, error", [
    (-1, ValueError), (np.int64(-3), ValueError), (np.int32(-1), ValueError),
    (1.0, TypeError), (np.float64(2.0), TypeError), (None, TypeError),
    (b"local", TypeError), ((1,), TypeError)])
def test_bad_labels_raise(label, error):
    gen = np.random.Generator(np.random.Philox())
    for reuse in (None, gen):
        with pytest.raises(error):
            fa.substream(0, "local", label, reuse=reuse)


def _draw(kind, rng, steps, m):
    if kind == "normal":
        return rng.normal(0.0, 0.3, size=(steps, m))
    if kind == "standard_normal_out":
        out = np.empty((steps, m))
        rng.standard_normal(out=out)
        return out
    if kind == "choice":
        return rng.choice(4 * m, size=m, replace=False)
    return fa.NoiseModel("sphere", 0.7).sample_block(rng, steps, m)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), path=LABELS,
       kinds=st.lists(st.sampled_from(["normal", "standard_normal_out",
                                       "choice", "sphere"]),
                      min_size=1, max_size=4),
       dirty=st.integers(0, 5), steps=st.integers(1, 6), m=st.integers(1, 40))
def test_reuse_matches_fresh_stream(seed, path, kinds, dirty, steps, m):
    gen = np.random.Generator(np.random.Philox(key=dirty))
    gen.normal(size=dirty)
    # an odd number of 32-bit draws leaves a half-used word and a partly
    # consumed buffer behind
    gen.integers(0, 2**32, size=2 * dirty + 1, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1

    fresh = fa.substream(seed, *path)
    reused = fa.substream(seed, *path, reuse=gen)
    assert reused is gen
    for kind in kinds:
        np.testing.assert_array_equal(_draw(kind, reused, steps, m),
                                      _draw(kind, fresh, steps, m))
