"""Property tests for the invariants the paper relies on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from enthier.linalg import random_unitary, seeded_rng
from enthier.measures import (
    NEWTON_DIM_LIMIT,
    hierarchy,
    hierarchy_via_invariants,
    hierarchy_via_minors,
)
from enthier.states import apply_local_unitary, random_pure

ROUTE_TOL = 1e-8  # the triple-path agreement tolerance of the acceptance tests

dims = st.integers(min_value=1, max_value=NEWTON_DIM_LIMIT)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dim_a=dims, dim_b=dims, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_routes_agree_and_are_local_unitary_invariant(dim_a, dim_b, seed):
    rng = seeded_rng(seed)
    state = random_pure(dim_a, dim_b, rng)
    rotated = apply_local_unitary(state, random_unitary(dim_a, rng), random_unitary(dim_b, rng))
    eig = hierarchy(state)
    for route in (hierarchy, hierarchy_via_minors, hierarchy_via_invariants):
        assert np.max(np.abs(route(state) - eig)) <= ROUTE_TOL
        assert np.max(np.abs(route(rotated) - eig)) <= ROUTE_TOL
