"""``oracle.leaves``: the prefix walk's nonzero leaves, which ``qhist verify``
reads instead of one probability per history."""

import itertools
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qhist.histories import build_family
from qhist.linalg import identity
from qhist.oracle import leaves, sequential_probability

from helpers import KET_UP, pauli_decomposition, random_family


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=2, max_value=4),
    n_slots=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["generic", "repeated", "single", "basis", "eigen"]),
)
@settings(max_examples=100, deadline=None)
def test_leaves_are_the_nonzero_histories_with_their_oracle_bits(seed, d, n_slots, kind):
    fam = random_family(np.random.default_rng(seed), d, n_slots, kind=kind)
    indices, states = leaves(fam)
    assert indices.dtype == np.int64 and [state.shape for state in states] == [(fam.dim,)] * len(indices)
    assert (np.diff(indices) > 0).all()
    at = dict(zip(indices.tolist(), states))
    for flat, seq in enumerate(itertools.product(*(dec.labels for dec in fam.slot_decompositions))):
        expected = sequential_probability(fam, seq)
        # bits, not values: a -0.0 where the reference has +0.0 fails too
        found = np.vdot(at[flat], at[flat]).real if flat in at else 0.0
        assert found.hex() == expected.hex(), seq


def test_the_40_slot_sigma_z_chain_has_one_leaf():
    # 2**40 histories, one of them nonzero; no array of one entry per history
    n_slots = 40
    fam = build_family(KET_UP, [f"t{k}" for k in range(n_slots + 1)], [identity(2)] * n_slots,
                       [pauli_decomposition("z")] * n_slots, max_histories=2**n_slots)
    started = time.perf_counter()
    indices, states = leaves(fam)
    assert time.perf_counter() - started < 0.1
    assert indices.tolist() == [0]
    assert [state.tobytes() for state in states] == [KET_UP.tobytes()]
