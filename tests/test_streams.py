"""Substream derivation: re-keying a used generator equals a fresh one."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fedamp as fa

LABELS = st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=6)),
                  max_size=4)


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
