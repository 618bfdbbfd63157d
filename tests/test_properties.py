"""The paper's identities as properties over random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedamp as fa
from fedamp.analysis import _round_quantities
from fedamp.engine import RunState

# values k/1000 for |k| <= 10^6: wide range, no subnormal squares
VALUES = st.integers(-10**6, 10**6).map(lambda k: k / 1000)


@st.composite
def offsets_and_weights(draw):
    """Client offsets (N, m), simplex rows (T, N) with zeros, and P <= T."""
    N, m, T = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 12))
    offsets = draw(hnp.arrays(np.float64, (N, m), elements=VALUES))
    raw = draw(hnp.arrays(np.float64, (T, N),
                          elements=st.one_of(st.just(0.0), st.floats(1e-3, 1.0))))
    raw[raw.sum(axis=1) == 0, draw(st.integers(0, N - 1))] = 1.0
    return offsets, raw / raw.sum(axis=1, keepdims=True), draw(st.integers(1, T))


@settings(max_examples=100, deadline=None)
@given(offsets_and_weights())
def test_decomposition_beta_plus_nu(case):
    offsets, w, P = case
    beta_t, nu_t, weighted_d2, _ = _round_quantities(offsets, w, P)
    assert np.all(np.abs(beta_t + nu_t - weighted_d2) <= 1e-10 * weighted_d2)


@settings(max_examples=100, deadline=None)
@given(offsets_and_weights())
def test_window_bias_below_round_bias(case):
    # a window average of the weighted offsets is no longer than the longest
    offsets, w, P = case
    beta_t, _, _, delta2 = _round_quantities(offsets, w, P)
    assert delta2 <= beta_t.max() * (1 + 1e-12)


@st.composite
def boundary_states(draw):
    m = draw(st.integers(1, 6))
    P = draw(st.integers(1, 8))
    t0 = P * draw(st.integers(0, 4))
    x, u = (draw(hnp.arrays(np.float64, m, elements=VALUES)) for _ in range(2))
    return RunState(x=x, u=u, t0=t0, t=t0 + P - 1, P=P)


@settings(max_examples=100, deadline=None)
@given(boundary_states(), st.floats(1e-3, 20.0))
def test_amplification_identity(state, eta):
    out = fa.amplify(state, eta)
    np.testing.assert_array_equal(out.x, state.x + (eta - 1.0) * state.u)
    assert not out.u.any() and out.t0 == state.t + 1


@settings(max_examples=50, deadline=None)
@given(boundary_states())
def test_eta_one_leaves_x_bitwise(state):
    assert fa.amplify(state, 1.0).x.tobytes() == state.x.tobytes()
