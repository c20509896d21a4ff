import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhist.errors import (
    BadDecompositionError,
    DimMismatchError,
    HistoryLimitError,
    NotAPartitionError,
    NotCompleteError,
    NotUnitaryError,
    UnknownHistoryError,
    UnknownLabelError,
)
from qhist.framework import make_decomposition
from qhist.histories import (
    TimeGrid,
    build_family,
    chain_ket,
    coarse_grain,
    consistency_check,
)
from qhist.linalg import SIGMA_X, SIGMA_Z, identity, max_abs
from qhist.oracle import sequential_probability
from qhist.scenario import parse_scenario, resolve

from helpers import (
    KET_UP,
    chain_ket_probability,
    full_gram,
    gallery,
    pauli_decomposition,
    random_decomposition,
    random_family,
    random_state,
    random_unitary,
)

I2 = identity(2)
GRID = ["t0", "t1", "t2"]
DX = pauli_decomposition("x")
DZ = pauli_decomposition("z")


def xz_family():
    return build_family(KET_UP, GRID, [I2, I2], [DX, DZ])


def xx_family():
    return build_family(KET_UP, GRID, [I2, I2], [DX, DX])


def zz_family():
    return build_family(KET_UP, GRID, [I2, I2], [DZ, DZ])


class TestBuildFamily:
    def test_single_slot_observable(self):
        fam = build_family(KET_UP, ["t0", "t1"], [I2], [SIGMA_X])
        assert len(fam.histories) == 2
        assert fam.slot_decompositions[0].labels == ("ev0=-1", "ev1=1")

    def test_two_slots_enumerate_four(self):
        assert len(xz_family().histories) == 4

    def test_single_projector_padded_with_rest(self):
        fam = build_family(KET_UP, ["t0", "t1"], [I2], [(I2 + SIGMA_Z) / 2])
        decomp = fam.slot_decompositions[0]
        assert decomp.labels == ("p", "rest")
        assert max_abs(decomp.projector_for("rest") - (I2 - SIGMA_Z) / 2) < 1e-12

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(ValueError):
            build_family(2.0 * KET_UP, ["t0", "t1"], [I2], [DZ])

    def test_non_unitary_evolution_rejected(self):
        with pytest.raises(NotUnitaryError):
            build_family(KET_UP, ["t0", "t1"], [np.array([[1, 1], [0, 1]])], [DZ])

    @pytest.mark.parametrize(
        "slot, named",
        [
            ([("a", np.diag([1, 0]).astype(complex)), ("b", identity(4))], "projector 0 has shape (2, 2)"),
            ([("a", identity(3))], "projector 0 has shape (3, 3)"),
            ([("a", identity(4)), ("b", np.ones((4, 3)))], "projector 1 has shape (4, 3)"),
        ],
        ids=["2x2_before_4x4", "lone_3x3", "4x3_after_4x4"],
    )
    def test_mis_shaped_list_element_is_named(self, slot, named):
        ket = identity(4)[0]
        with pytest.raises(BadDecompositionError) as info:
            build_family(ket, ["t0", "t1"], [None], [slot])
        assert str(info.value) == f"slot is not a valid decomposition: {named}, expected (4, 4)"
        assert type(info.value.__cause__) is DimMismatchError

    @pytest.mark.parametrize(
        "slot, cause, named",
        [
            ([("a", 0.5 * identity(4)), ("b", identity(3))], DimMismatchError,
             "projector 1 has shape (3, 3), expected (4, 4)"),
            ([("a", identity(4)), ("a", identity(3))], DimMismatchError,
             "projector 1 has shape (3, 3), expected (4, 4)"),
        ],
        ids=["non_projector_before_3x3", "repeated_label_with_3x3"],
    )
    def test_a_misfit_is_named_before_an_earlier_fault(self, slot, cause, named):
        # structure before values: a shape fault before a label or projector fault
        ket = identity(4)[0]
        with pytest.raises(BadDecompositionError) as info:
            build_family(ket, ["t0", "t1"], [None], [slot])
        assert str(info.value) == f"slot is not a valid decomposition: {named}"
        assert type(info.value.__cause__) is cause

    def test_history_cap(self):
        with pytest.raises(HistoryLimitError):
            build_family(KET_UP, GRID, [I2, I2], [DX, DZ], max_histories=3)

    def test_an_empty_projector_list_is_not_padded(self):
        # nothing to pad: the empty list is refused as make_decomposition([], []) is
        with pytest.raises(BadDecompositionError, match="needs at least one projector") as info:
            build_family(KET_UP, ["t0", "t1"], [I2], [[]])
        assert type(info.value.__cause__) is NotCompleteError

    @pytest.mark.parametrize(
        "slot, index",
        [
            ([("a", (I2 + SIGMA_Z) / 2), (1, (I2 - SIGMA_Z) / 2)], 1),
            ([("a",)], 0),
            ([("a", I2, 3)], 0),
        ],
        ids=["int_label", "one_tuple", "three_tuple"],
    )
    def test_a_list_element_that_is_not_a_labelled_pair_is_named(self, slot, index):
        with pytest.raises(BadDecompositionError) as info:
            build_family(KET_UP, ["t0", "t1"], [I2], [slot])
        assert str(info.value) == f"slot element {index} is not a (str label, projector) pair"

    @pytest.mark.parametrize("label, joiner", [("p∧q", "∧"), ("a∨b", "∨"), ("∨∧", "∧")])
    def test_a_list_label_with_a_joiner_is_named(self, label, joiner):
        slot = [("up", (I2 + SIGMA_Z) / 2), (label, (I2 - SIGMA_Z) / 2)]
        with pytest.raises(BadDecompositionError) as info:
            build_family(KET_UP, ["t0", "t1"], [I2], [slot])
        assert str(info.value) == f"slot element 1: label {label!r} contains the joiner {joiner!r}"

    @pytest.mark.parametrize(
        "slot, error, message",
        [
            (random_decomposition(np.random.default_rng(0), 3), DimMismatchError,
             r"slot decomposition has dim 3, expected 2"),
            (identity(3), DimMismatchError, r"slot operator has shape \(3, 3\), expected \(2, 2\)"),
            (np.array([[0, 1], [0, 0]], dtype=complex), BadDecompositionError,
             "slot operator is neither a projector nor Hermitian"),
            ([("rest", (I2 + SIGMA_Z) / 2)], BadDecompositionError,
             "label 'rest' is reserved for the complement padding"),
            ([("a", np.full((2, 2), np.nan))], ValueError, "^matrix entries must be finite$"),  # not wrapped
        ],
        ids=["decomposition_of_another_dim", "operator_of_another_shape", "neither_projector_nor_hermitian",
             "rest_label_in_an_incomplete_list", "non_finite_entry"],
    )
    def test_a_slot_that_cannot_be_coerced(self, slot, error, message):
        with pytest.raises(error, match=message):
            build_family(KET_UP, ["t0", "t1"], [I2], [slot])

    @pytest.mark.parametrize(
        "evolutions, slots, message",
        [
            ([I2, I2], [DZ], r"expected 1 evolutions, got 2"),
            ([identity(3)], [DZ], r"evolution 0 has shape \(3, 3\), expected \(2, 2\)"),
            ([I2], [DZ, DZ], r"expected 1 slots, got 2"),
            ([I2], [identity(3), DZ], r"expected 1 slots, got 2"),  # checked before any slot
        ],
        ids=["evolution_count", "evolution_shape", "slot_count", "slot_count_before_a_bad_slot"],
    )
    def test_counts_and_shapes_must_match_the_grid(self, evolutions, slots, message):
        with pytest.raises(DimMismatchError, match=message):
            build_family(KET_UP, ["t0", "t1"], evolutions, slots)

    def test_grid_needs_two_times(self):
        from qhist.errors import BadTimesError

        with pytest.raises(BadTimesError):
            TimeGrid(("t0",))

    def test_grid_times_must_be_unique(self):
        from qhist.errors import BadTimesError

        with pytest.raises(BadTimesError) as excinfo:
            TimeGrid(("t0", "t1", "t0"))
        assert str(excinfo.value) == "duplicate time labels in ('t0', 't1', 't0')"


class TestChainKet:
    def test_repeated_eigenstate_measurement(self):
        fam = zz_family()
        ket = chain_ket(fam, ("+z", "+z"))
        assert np.allclose(ket, KET_UP)

    def test_orthogonal_slot_kills_branch(self):
        fam = zz_family()
        assert max_abs(chain_ket(fam, ("+z", "-z"))) == 0.0

    def test_x_then_z_amplitude(self):
        # <+x|up> = 1/sqrt2 then <up|+x> = 1/sqrt2, leaving |up>/2
        ket = chain_ket(xz_family(), ("+x", "+z"))
        assert np.allclose(ket, KET_UP / 2)

    def test_unknown_history(self):
        with pytest.raises(UnknownHistoryError):
            chain_ket(zz_family(), ("+z", "sideways"))


class TestHistoryProbability:
    # a history's probability as the report gives it and as its chain ket's squared norm
    @staticmethod
    def probabilities(fam, labels):
        return consistency_check(fam).probability(labels), chain_ket_probability(fam, labels)

    def test_certain_repeat(self):
        assert self.probabilities(zz_family(), ("+z", "+z")) == pytest.approx((1.0, 1.0))

    def test_x_then_z(self):
        assert self.probabilities(xz_family(), ("+x", "+z")) == pytest.approx((0.25, 0.25), abs=1e-12)

    def test_x_then_x(self):
        assert self.probabilities(xx_family(), ("+x", "+x")) == pytest.approx((0.5, 0.5), abs=1e-12)


class TestConsistencyCheck:
    def test_repeated_x_is_consistent(self):
        report = consistency_check(xx_family())
        assert report.consistent
        expected = {("+x", "+x"): 0.5, ("+x", "-x"): 0.0, ("-x", "+x"): 0.0, ("-x", "-x"): 0.5}
        for labels, p in zip(report.family.histories, report.probabilities):
            assert p == pytest.approx(expected[labels], abs=1e-12)

    def test_x_then_z_is_inconsistent_with_quarter_overlap(self):
        report = consistency_check(xz_family())
        assert not report.consistent
        i = report.family.histories.index(("+x", "+z"))
        j = report.family.histories.index(("-x", "+z"))
        assert abs(full_gram(report)[i, j]) == pytest.approx(0.25, abs=1e-12)

    def test_single_slot_always_consistent(self, rng):
        for _ in range(20):
            fam = random_family(rng, int(rng.integers(2, 6)), 1, kind="single")
            assert consistency_check(fam).consistent

    def test_gram_is_hermitian(self, rng):
        fam = random_family(rng, 3, 2)
        g = full_gram(consistency_check(fam))
        assert max_abs(g - g.conj().T) == 0.0


class TestCoarseGrain:
    def test_merge_whole_slot_gives_identity(self):
        fam = zz_family()
        merged = coarse_grain(fam, {"t1": [("+z", "-z")]})
        decomp = merged.slot_decompositions[0]
        assert len(decomp) == 1
        assert max_abs(decomp.projectors[0] - I2) < 1e-12

    def test_merge_nothing_is_identity(self):
        fam = xz_family()
        same = coarse_grain(fam, {})
        assert same.histories == fam.histories

    def test_merging_x_slot_restores_consistency(self):
        merged = coarse_grain(xz_family(), {"t1": [("+x", "-x")]})
        report = consistency_check(merged)
        assert report.consistent
        assert len(merged.histories) == 2
        assert sorted(report.probabilities) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_not_a_partition_rejected(self):
        with pytest.raises(NotAPartitionError):
            coarse_grain(xz_family(), {"t1": [("+x",)]})

    def test_a_merge_time_that_is_no_slot_time_is_refused(self):
        # t0 is on the grid but carries no slot
        with pytest.raises(UnknownLabelError) as excinfo:
            coarse_grain(xz_family(), {"t9": [("+z", "-z")], "t0": [("+x", "-x")]})
        assert str(excinfo.value) == "merge times ['t0', 't9'] are not slot times"

    def test_a_family_over_the_default_cap_merges_under_its_own(self):
        # 2^21 histories, built under a raised cap; merging one slot halves
        # them to 2^20, which is still over the default cap of 10^6
        times = [f"t{k}" for k in range(22)]
        family = build_family(KET_UP, times, [None] * 21, [DZ] * 21, max_histories=2**21)
        merged = coarse_grain(family, {"t1": [("+z", "-z")]})
        assert merged.shape == (1,) + (2,) * 20 and merged.n_histories == 2**20


def _consistent_pool(rng, count):
    """Random consistent families: single-slot plus transported-observable chains."""
    pool = []
    while len(pool) < count:
        d = int(rng.integers(2, 5))
        kind = "single" if len(pool) % 2 == 0 else "repeated"
        n_slots = 1 if kind == "single" else int(rng.integers(2, 4))
        fam = random_family(rng, d, n_slots, kind=kind)
        if consistency_check(fam).consistent:
            pool.append(fam)
    return pool


class TestFamilyInvariants:
    def test_probabilities_sum_to_one_for_consistent_families(self, rng):
        for fam in _consistent_pool(rng, 100):
            report = consistency_check(fam)
            assert abs(float(np.sum(report.probabilities)) - 1.0) < 1e-9

    def test_additivity_under_coarse_graining_for_consistent_families(self, rng):
        for fam in _consistent_pool(rng, 15):
            slot_time = fam.grid.slot_times[0]
            labels = fam.slot_decompositions[0].labels
            if len(labels) < 2:
                continue
            merged = coarse_grain(fam, {slot_time: [labels[:2], *[(l,) for l in labels[2:]]]})
            fine = consistency_check(fam)
            coarse = consistency_check(merged)
            for clabels, cp in zip(merged.histories, coarse.probabilities):
                mass = sum(
                    fp
                    for flabels, fp in zip(fam.histories, fine.probabilities)
                    if flabels[1:] == clabels[1:] and flabels[0] in clabels[0].split("∨")
                )
                assert abs(cp - mass) < 1e-9

    def test_inconsistent_family_violates_additivity_somewhere(self, rng):
        # whenever some single-slot-differing pair of chain kets has an
        # overlap with a real part, additivity of the corresponding merge
        # breaks by twice that real part
        found = 0
        attempts = 0
        while found < 10 and attempts < 200:
            attempts += 1
            fam = random_family(rng, int(rng.integers(2, 5)), 2)
            report = consistency_check(fam)
            if report.consistent:
                continue
            real_single_slot = False
            histories, gram = fam.histories, full_gram(report)
            for i in range(len(histories)):
                for j in range(i + 1, len(histories)):
                    differs = [a != b for a, b in zip(histories[i], histories[j])]
                    if sum(differs) == 1 and abs(gram[i, j].real) > 1e-7:
                        real_single_slot = True
            if not real_single_slot:
                continue
            found += 1
            from qhist.oracle import exhaustive_additivity_scan

            assert exhaustive_additivity_scan(fam), "expected at least one additivity violation"
        assert found >= 10

    def test_oracle_equivalence(self, rng):
        for _ in range(30):
            fam = random_family(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            for labels in fam.histories:
                assert abs(
                    chain_ket_probability(fam, labels) - sequential_probability(fam, labels)
                ) < 1e-12

    def test_unitary_invariance_of_gram_matrix(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            fam = random_family(rng, d, 2)
            g1 = full_gram(consistency_check(fam))
            u = random_unitary(rng, d)
            slots = [
                make_decomposition(
                    [u.conj().T @ p @ u for p in decomp.projectors], decomp.labels
                )
                for decomp in fam.slot_decompositions
            ]
            evolutions = [u.conj().T @ ev.unitary @ u for ev in fam.evolutions]
            rotated = build_family(
                u.conj().T @ fam.initial_ket, fam.grid, evolutions, slots
            )
            g2 = full_gram(consistency_check(rotated))
            assert max_abs(g1 - g2) < 1e-9


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 3),
    st.sampled_from(["generic", "repeated", "single", "basis"]),
)
@settings(max_examples=100, deadline=None)
def test_verdict_and_probabilities_survive_a_change_of_basis(seed, d, n_slots, kind):
    # W|psi0>, W U W^dagger and W P W^dagger describe the same physics
    rng = np.random.default_rng(seed)
    fam = random_family(rng, d, n_slots, kind)
    w = random_unitary(rng, d)
    rotated = build_family(
        w @ fam.initial_ket,
        fam.grid,
        [w @ ev.unitary @ w.conj().T for ev in fam.evolutions],
        [make_decomposition(w @ dec.projectors @ w.conj().T, dec.labels) for dec in fam.slot_decompositions],
    )
    before, after = consistency_check(fam), consistency_check(rotated)
    assert after.consistent == before.consistent
    assert max_abs(after.probabilities - before.probabilities) <= 1e-12
    assert abs(after.max_offdiag - before.max_offdiag) <= 1e-12


def _consistent_report(seed, d, n_slots, kind):
    report = consistency_check(random_family(np.random.default_rng(seed), d, n_slots, kind))
    assume(report.consistent)
    return report


FAMILIES = (
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 3),
    st.sampled_from(["generic", "repeated", "single", "basis"]),
)


@given(*FAMILIES)
@settings(max_examples=100, deadline=None)
def test_consistent_family_probabilities_sum_to_one_and_gram_is_psd(seed, d, n_slots, kind):
    report = _consistent_report(seed, d, n_slots, kind)
    # sum p = |sum of chain kets|^2 - (off-diagonal overlaps), and the chain
    # kets sum to the evolved initial ket
    m = len(report.support)
    assert abs(report.probabilities.sum() - 1.0) <= 1e-12 + m * (m - 1) * report.max_offdiag
    gram = np.conjugate(report.kets) @ report.kets.T
    assert max_abs(gram - gram.conj().T) <= 1e-12
    assert np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() >= -1e-12


@given(*FAMILIES)
@settings(max_examples=100, deadline=None)
def test_probabilities_are_the_gram_diagonal_of_the_kets(seed, d, n_slots, kind):
    # the diagonal of the kets' own Gram product, to the bit; row norms round
    # differently in the last bit, which would move the CLI's bytes
    report = consistency_check(random_family(np.random.default_rng(seed), d, n_slots, kind))
    diagonal = (np.conjugate(report.kets) @ report.kets.T).diagonal().real
    assert report.probabilities[report.support].tobytes() == diagonal.tobytes()
    assert not np.delete(report.probabilities, report.support).any()
    row_norms = np.einsum("ij,ij->i", np.conjugate(report.kets), report.kets).real
    assert max_abs(row_norms - diagonal) <= 1e-12


def test_a_report_is_read_only():
    (record,) = resolve(parse_scenario(gallery("zxz_inconsistent").read_bytes()))
    report = consistency_check(record.family)
    assert not report.consistent
    for array in (report.kets, report.support, report.probabilities):
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_report_holds_its_kets_and_no_gram_matrix(rng):
    # six dense 4-outcome slots at d=8: N = 4096 histories, nearly all of
    # whose chain kets survive, so an m x m matrix would dwarf the kets
    d, n_slots = 8, 6
    fam = build_family(
        random_state(rng, d),
        [f"t{k}" for k in range(n_slots + 1)],
        [random_unitary(rng, d) for _ in range(n_slots)],
        [random_decomposition(rng, d, n_blocks=4) for _ in range(n_slots)],
    )
    report = consistency_check(fam)
    n, m = fam.n_histories, len(report.support)
    assert n == 4096 and m > 64 * d
    assert report.kets.shape == (m, d) and not report.kets.flags.writeable
    arrays = [getattr(report, f.name) for f in dataclasses.fields(report)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert all(a.shape[-2:] != (m, m) for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 16 * m * d + 8 * n + 8 * m


@given(*FAMILIES, st.data())
@settings(max_examples=100, deadline=None)
def test_coarse_graining_keeps_a_family_consistent(seed, d, n_slots, kind, data):
    report = _consistent_report(seed, d, n_slots, kind)
    fam = report.family
    merges = {}
    for time, decomp in zip(fam.grid.slot_times, fam.slot_decompositions):
        if data.draw(st.booleans(), label=f"merge at {time}"):
            # a random partition of the slot's labels into groups
            n = len(decomp)
            group_of = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            groups = {}
            for label, g in zip(decomp.labels, group_of):
                groups.setdefault(g, []).append(label)
            merges[time] = list(groups.values())
    coarse = consistency_check(coarse_grain(fam, merges))
    assert coarse.consistent
    assert abs(coarse.probabilities.sum() - report.probabilities.sum()) <= 1e-12
