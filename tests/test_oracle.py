import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhist.errors import SizeCapError, UnknownLabelError
from qhist.histories import build_family, coarse_grain, consistency_check
from qhist.framework import DISJUNCTION_JOINER, ProjectiveDecomposition, make_decomposition
from qhist.linalg import DEFAULT_TOL, identity
from qhist.oracle import (
    MAX_MERGE_LABELS,
    AdditivityViolation,
    exhaustive_additivity_scan,
    sequential_probabilities,
    sequential_probability,
)

from helpers import KET_UP, full_gram, pauli_decomposition, random_decomposition, random_family, random_state

I2 = identity(2)
GRID = ["t0", "t1", "t2"]
DX = pauli_decomposition("x")
DY = pauli_decomposition("y")
DZ = pauli_decomposition("z")


class TestSequentialProbability:
    def test_repeated_eigenstate(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [DZ, DZ])
        assert sequential_probability(fam, ("+z", "+z")) == pytest.approx(1.0)

    def test_x_then_z_quarter(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [DX, DZ])
        assert sequential_probability(fam, ("+x", "+z")) == pytest.approx(0.25, abs=1e-12)

    def test_sequences_telescope_to_one(self, rng):
        for _ in range(20):
            fam = random_family(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            total = sum(
                sequential_probability(fam, seq)
                for seq in itertools.product(*(d.labels for d in fam.slot_decompositions))
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_unknown_label(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [DX, DZ])
        with pytest.raises(UnknownLabelError):
            sequential_probability(fam, ("+x", "+q"))

    @pytest.mark.parametrize("seq", [(), ("+x",), ("+x", "+z", "+z")])
    def test_a_sequence_of_the_wrong_length_is_refused(self, seq):
        fam = build_family(KET_UP, GRID, [I2, I2], [DX, DZ])
        with pytest.raises(UnknownLabelError) as excinfo:
            sequential_probability(fam, seq)
        assert str(excinfo.value) == f"sequence has {len(seq)} labels, family has 2 slots"


class TestSequentialProbabilities:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.integers(min_value=2, max_value=4),
        n_slots=st.integers(min_value=1, max_value=4),
        kind=st.sampled_from(["generic", "repeated", "single", "basis", "eigen"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_walk_matches_per_sequence_oracle_bit_for_bit(self, seed, d, n_slots, kind):
        fam = random_family(np.random.default_rng(seed), d, n_slots, kind=kind)
        expected = [
            sequential_probability(fam, seq)
            for seq in itertools.product(*(dec.labels for dec in fam.slot_decompositions))
        ]
        # bytes, not values: a -0.0 where the reference has +0.0 fails too
        assert sequential_probabilities(fam).tobytes() == np.array(expected).tobytes()

    def test_walk_expands_only_nonzero_prefixes(self):
        # sigma_z 16 times from up_z: 65536 histories, one of them nonzero
        n_slots = 16
        fam = build_family(
            KET_UP, [f"t{k}" for k in range(n_slots + 1)], [I2] * n_slots, [DZ] * n_slots
        )
        projections = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                projections.append(1)
                return np.asarray(self) @ other

        counted = ProjectiveDecomposition(dim=2, projectors=DZ.projectors.view(Counted), labels=DZ.labels)
        probs = sequential_probabilities(dataclasses.replace(fam, slot_decompositions=(counted,) * n_slots))
        # each level expands the one nonzero prefix into its two children
        assert len(projections) == 2 * n_slots
        assert probs.shape == (2**n_slots,)
        assert probs[0] == 1.0
        assert not probs[1:].any()

    def test_deep_family_needs_no_recursion(self):
        # 1500 one-outcome slots: deeper than the default recursion limit
        n_slots = 1500
        whole = make_decomposition([I2], ["all"])
        fam = build_family(
            KET_UP, [f"t{k}" for k in range(n_slots + 1)], [I2] * n_slots, [whole] * n_slots
        )
        probs = sequential_probabilities(fam)
        assert probs.shape == (1,)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)


def reference_scan(family, tol=DEFAULT_TOL):
    """The additivity scan one context at a time: three
    ``sequential_probability`` calls per context, per merge and per slot."""
    violations = []
    decomps = family.slot_decompositions
    for s, (time, decomp) in enumerate(zip(family.grid.slot_times, decomps)):
        other_labels = [d.labels for k, d in enumerate(decomps) if k != s]
        for l1, l2 in itertools.combinations(decomp.labels, 2):
            groups = [(l1, l2)] + [(lab,) for lab in decomp.labels if lab not in (l1, l2)]
            coarse = coarse_grain(family, {time: groups}, tol)
            merged = DISJUNCTION_JOINER.join((l1, l2))
            for context in itertools.product(*other_labels):
                coarse_p = sequential_probability(coarse, context[:s] + (merged,) + context[s:])
                fine_sum = sequential_probability(family, context[:s] + (l1,) + context[s:])
                fine_sum += sequential_probability(family, context[:s] + (l2,) + context[s:])
                if abs(coarse_p - fine_sum) > 10.0 * tol.cons:
                    violations.append(AdditivityViolation(time, (l1, l2), context, coarse_p, fine_sum))
    return violations


def assert_same_violations(found, expected):
    assert found == expected
    # bits, not values: a -0.0 where the reference has +0.0 fails too
    bits = [(v.coarse_probability.hex(), v.fine_sum.hex()) for v in found]
    assert bits == [(v.coarse_probability.hex(), v.fine_sum.hex()) for v in expected]


class TestAdditivityScan:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.integers(min_value=2, max_value=4),
        n_slots=st.integers(min_value=1, max_value=4),
        kind=st.sampled_from(["generic", "repeated", "single", "basis", "eigen"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_scan_matches_per_history_reference(self, seed, d, n_slots, kind):
        fam = random_family(np.random.default_rng(seed), d, n_slots, kind=kind)
        assert_same_violations(exhaustive_additivity_scan(fam), reference_scan(fam))

    def test_slot_of_max_merge_labels_matches_reference(self, rng):
        d = MAX_MERGE_LABELS
        slots = [random_decomposition(rng, d, d), random_decomposition(rng, d, 3)]
        fam = build_family(random_state(rng, d), ["t0", "t1", "t2"], [identity(d)] * 2, slots)
        assert len(fam.slot_decompositions[0]) == MAX_MERGE_LABELS
        violations = exhaustive_additivity_scan(fam)
        assert violations  # the last slot merges additively; the first does not
        assert_same_violations(violations, reference_scan(fam))

    def test_consistent_family_is_clean(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [DX, DX])
        assert exhaustive_additivity_scan(fam) == []

    def test_x_then_z_flags_the_t1_merge(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [DX, DZ])
        violations = exhaustive_additivity_scan(fam)
        assert len(violations) == 2
        for v in violations:
            assert v.time == "t1" and v.merged == ("+x", "-x")
            assert v.discrepancy == pytest.approx(0.5, abs=1e-12)
        contexts = {v.context for v in violations}
        assert contexts == {("+z",), ("-z",)}

    def test_single_slot_family_is_clean(self, rng):
        for _ in range(10):
            fam = random_family(rng, int(rng.integers(2, 6)), 1, kind="single")
            assert exhaustive_additivity_scan(fam) == []

    def test_size_cap(self):
        d = 13
        h = np.diag(np.arange(d, dtype=complex))
        ket = np.zeros(d, dtype=complex)
        ket[0] = 1.0
        fam = build_family(ket, ["t0", "t1"], [identity(d)], [h])
        with pytest.raises(SizeCapError):
            exhaustive_additivity_scan(fam)

    def test_purely_imaginary_overlap_hides_from_additivity(self):
        # y then x from |up>: the single-slot-differing overlaps are +-i/4,
        # so the family is inconsistent by the full complex criterion yet
        # every pairwise merge is perfectly additive (the real part is what
        # additivity can see)
        fam = build_family(KET_UP, GRID, [I2, I2], [DY, DX])
        report = consistency_check(fam)
        assert not report.consistent
        i = fam.histories.index(("+y", "+x"))
        j = fam.histories.index(("-y", "+x"))
        overlap = full_gram(report)[i, j]
        assert abs(overlap.real) < 1e-12
        assert abs(overlap.imag) == pytest.approx(0.25, abs=1e-12)
        assert exhaustive_additivity_scan(fam) == []
