import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qhist.framework
import qhist.stablefacts
from qhist.errors import (
    BadTimesError,
    InconsistentFamilyError,
    MismatchedScenarioError,
    NotCompatibleError,
    QHistError,
    UnknownLabelError,
    ZeroProbabilityConditionError,
)
from qhist.framework import (
    ProjectiveDecomposition,
    _ExactDecomposition,
    decompositions_compatible,
    make_decomposition,
    refine,
)
from qhist.histories import (
    Evolution,
    HistoryFamily,
    TimeGrid,
    _surviving_kets,
    build_family,
    coarse_grain,
    consistency_check,
)
from qhist.linalg import DEFAULT_TOL, SIGMA_X, SIGMA_Z, Tolerance, identity
from qhist.scenario import Measurement, NamedObservable, ObserverSpec, Scenario, parse_scenario, resolve
from qhist.stablefacts import (
    FactQuery,
    ObserverRecord,
    SlotCommutation,
    Verdict,
    check_compatibility,
    check_total_probability_law,
    combine,
    combine_all,
    conditional_probability,
    information_preserved,
)

from helpers import (
    CONDITION2,
    KET_UP,
    coordinate_decomposition,
    measurement_model,
    pauli_decomposition,
    random_decomposition,
    random_family,
    random_scenario,
    random_state,
    random_unitary,
    reference_products,
)

I2 = identity(2)
I4 = identity(4)
GRID = ["t0", "t1", "t2"]

DIMS2 = (2, 2)
PLUS_X = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET2 = np.kron(PLUS_X, KET_UP)  # x-eigenstate on qubit 1 so own families are consistent

DX1 = pauli_decomposition("x", 1, DIMS2)
DY1 = pauli_decomposition("y", 1, DIMS2)
DZ1 = pauli_decomposition("z", 1, DIMS2)
DX2 = pauli_decomposition("x", 2, DIMS2)


def observer(name, slots, ket=KET2, dim=4):
    return ObserverRecord(name, build_family(ket, GRID, [identity(dim)] * 2, slots))


def stable_pair():
    return observer("O1", [DX1, DZ1]), observer("O2", [DX1, DX2])


def relative_pair():
    return observer("O1", [DX1, DZ1]), observer("O2", [DY1, DX2])


class TestCheckCompatibility:
    def test_commuting_t2_observables_are_stable(self):
        o1, o2 = stable_pair()
        assert consistency_check(o1.family).consistent
        assert consistency_check(o2.family).consistent
        report = check_compatibility(o1, o2)
        assert report.verdict is Verdict.STABLE
        assert report.failing_condition is None
        assert all(sc.commutes for sc in report.per_slot_commutation)
        assert report.product_family_consistency.consistent

    def test_x_vs_y_at_t1_is_relative(self):
        report = check_compatibility(*relative_pair())
        assert report.verdict is Verdict.RELATIVE
        assert report.failing_condition == "condition1"
        t1 = report.per_slot_commutation[0]
        assert t1.time == "t1" and not t1.commutes
        assert t1.max_residual == pytest.approx(0.5, abs=1e-12)

    def test_self_compatibility(self):
        o1, _ = stable_pair()
        twin = ObserverRecord("O1'", o1.family)
        report = check_compatibility(o1, twin)
        assert report.verdict is Verdict.STABLE

    def test_verdict_is_symmetric(self):
        for pair in (stable_pair(), relative_pair()):
            forward = check_compatibility(*pair)
            backward = check_compatibility(pair[1], pair[0])
            assert forward.verdict is backward.verdict

    def test_mismatched_scenarios_rejected(self):
        o1, _ = stable_pair()
        other = observer("O2", [DX1, DX2], ket=np.kron(KET_UP, KET_UP))
        with pytest.raises(MismatchedScenarioError):
            check_compatibility(o1, other)

    @pytest.mark.parametrize("ket, times, evolutions, slots, message", [
        (KET_UP, GRID, [I2, I2], [pauli_decomposition("x")] * 2, "dims differ: 4 vs 2"),
        (KET2, ["t0", "t1", "t3"], [I4, I4], [DX1, DX2], "grids differ: ('t0', 't1', 't2') vs ('t0', 't1', 't3')"),
        (KET2, GRID, [I4, np.kron(I2, SIGMA_X)], [DX1, DX2], "evolutions differ on t1 -> t2"),
    ])
    def test_each_mismatch_is_named(self, ket, times, evolutions, slots, message):
        o1, _ = stable_pair()
        other = ObserverRecord("O2", build_family(ket, times, evolutions, slots))
        with pytest.raises(MismatchedScenarioError) as excinfo:
            check_compatibility(o1, other)
        assert str(excinfo.value) == message


def random_pair(seed):
    records = resolve(random_scenario(np.random.default_rng(seed)))
    assume(len(records) == 2)
    return records


class TestPairProperties:
    """Over the observer pairs of generated scenarios."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_compatibility_is_symmetric(self, seed):
        a, b = random_pair(seed)
        forward, backward = check_compatibility(a, b), check_compatibility(b, a)
        assert forward.verdict is backward.verdict
        assert forward.failing_condition == backward.failing_condition
        products = (forward.product_family_consistency, backward.product_family_consistency)
        assert (products[0] is None) == (products[1] is None)
        if products[0] is not None:
            assert products[0].max_offdiag == pytest.approx(products[1].max_offdiag, rel=1e-9, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_stable_iff_combine_returns_a_consistent_report(self, seed):
        a, b = random_pair(seed)
        verdict = check_compatibility(a, b).verdict
        try:
            report = combine(a, b)
        except NotCompatibleError:
            assert verdict is Verdict.RELATIVE
        else:
            assert verdict is Verdict.STABLE and report.consistent


def repeating_observers() -> dict[str, ObserverRecord]:
    """O1 and O4 of the ``observers`` benchmark workload on three qubits.
    ``resolve`` gives each distinct measurement one decomposition, so their
    five slot pairs are three distinct pairs: (z@1, y@3) three times,
    (x@2, x@1) and (x@2, y@3)."""
    def measurements(*names):
        return [{"time": f"t{k}", "observable": name} for k, name in enumerate(names, 1)]

    doc = {
        "format": 1,
        "name": "repeating_slot_pairs",
        "systems": [2, 2, 2],
        "initial_state": ["up_z", "plus_x", "plus_y"],
        "times": [f"t{k}" for k in range(6)],
        "observers": [
            {"name": "O1", "measurements": measurements(*["sigma_z@1", "sigma_x@2"] * 2, "sigma_z@1")},
            {"name": "O4", "measurements": measurements("sigma_y@3", "sigma_x@1", *["sigma_y@3"] * 3)},
        ],
    }
    return {r.name: r for r in resolve(parse_scenario(json.dumps(doc)))}


class TestRepeatedSlotPairs:
    """Observers whose slots pair the same two decompositions more than once."""

    @pytest.mark.parametrize(
        "names, distinct, verdict",
        [(("O1", "O4"), 3, "condition2"), (("O4", "O1"), 3, "condition2"), (("O1", "O1"), 2, None)],
        ids=["O1-O4", "O4-O1", "O1-O1"],
    )
    def test_report_equals_a_per_slot_reference(self, names, distinct, verdict):
        records = repeating_observers()
        a, b = (records[n] for n in names)
        report = check_compatibility(a, b)
        pairs = list(zip(a.family.slot_decompositions, b.family.slot_decompositions))
        assert len(pairs) == 5 and len({(id(da), id(db)) for da, db in pairs}) == distinct

        # the same report, one slot at a time
        expected = []
        for time, (da, db) in zip(a.family.grid.slot_times, pairs):
            check = decompositions_compatible(da, db)
            expected.append(SlotCommutation(time, check.max_residual, check.compatible, check.worst_pair))
        assert report.per_slot_commutation == tuple(expected)
        assert report.failing_condition == verdict
        fam = a.family
        reference = consistency_check(
            build_family(
                fam.initial_ket,
                fam.grid,
                [ev.unitary for ev in fam.evolutions],
                [make_decomposition(*reference_products(da, db)) for da, db in pairs],
            )
        )
        got = report.product_family_consistency
        for mine, theirs in zip(got.family.slot_decompositions, reference.family.slot_decompositions):
            assert mine.labels == theirs.labels
            assert mine.projectors.tobytes() == theirs.projectors.tobytes()
        assert np.array_equal(got.support, reference.support)
        assert got.probabilities.tobytes() == reference.probabilities.tobytes()
        assert (got.max_offdiag, got.consistent) == (reference.max_offdiag, reference.consistent)


def pooled_pair(seed: int) -> tuple[list[ObserverRecord], list[ObserverRecord]]:
    """Two observers whose slots are drawn from a pool of 2-3 decompositions
    (coordinate ones commute, so some pairs pass condition 1) under
    evolutions drawn from a pool of two unitaries: once with the pool's
    objects shared between slots, once with every slot and evolution an
    unshared copy of the same arrays."""
    rng = np.random.default_rng(seed)
    dim, n_slots = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    pool = [
        coordinate_decomposition(rng, dim) if rng.random() < 0.5 else random_decomposition(rng, dim)
        for _ in range(int(rng.integers(2, 4)))
    ]
    unitaries = [identity(dim), random_unitary(rng, dim)]
    ket = random_state(rng, dim)
    grid = TimeGrid(tuple(f"t{k}" for k in range(n_slots + 1)))
    picks = {"A": rng.integers(len(pool), size=n_slots), "B": rng.integers(len(pool), size=n_slots)}
    steps = rng.integers(len(unitaries), size=n_slots)

    def records(shared: bool) -> list[ObserverRecord]:
        def slot(i):
            return pool[i] if shared else ProjectiveDecomposition(dim, pool[i].projectors.copy(), pool[i].labels)

        def unitary(u):
            return unitaries[u] if shared else unitaries[u].copy()

        evolutions = tuple(Evolution(grid.labels[k], grid.labels[k + 1], unitary(u)) for k, u in enumerate(steps))
        return [
            ObserverRecord(name, HistoryFamily(dim, grid, ket, evolutions, tuple(slot(i) for i in chosen)))
            for name, chosen in picks.items()
        ]

    return records(True), records(False)


def assert_same_report(got, expected):
    assert got.kets.tobytes() == expected.kets.tobytes()
    assert got.support.tobytes() == expected.support.tobytes()
    assert got.probabilities.tobytes() == expected.probabilities.tobytes()
    assert got.max_offdiag == expected.max_offdiag


class TestRepeatedSteps:
    """Levels and slot pairs that repeat the same objects reuse one product per call."""

    def test_each_distinct_step_is_formed_once(self):
        family = repeating_observers()["O1"].family
        formed = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                formed.append(other)
                return np.asarray(self) @ other

        copies = {}
        for d in family.slot_decompositions:
            copies.setdefault(id(d), dataclasses.replace(d, projectors=d.projectors.view(Counted)))
        counted = dataclasses.replace(
            family, slot_decompositions=tuple(copies[id(d)] for d in family.slot_decompositions)
        )
        kets, support = _surviving_kets(counted)
        assert family.n_slots == 5 and len({id(ev.unitary) for ev in family.evolutions}) == 1
        assert len(formed) == 2
        expected = _surviving_kets(family)
        assert (kets.tobytes(), support.tobytes()) == (expected[0].tobytes(), expected[1].tobytes())

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_shared_objects_give_the_bytes_of_unshared_copies(self, seed):
        shared, copies = pooled_pair(seed)
        for mine, theirs in zip(shared, copies):
            assert_same_report(consistency_check(mine.family), consistency_check(theirs.family))
        got, expected = check_compatibility(*shared), check_compatibility(*copies)
        assert got.per_slot_commutation == expected.per_slot_commutation
        assert got.failing_condition == expected.failing_condition
        got, expected = got.product_family_consistency, expected.product_family_consistency
        assert (got is None) == (expected is None)
        if got is not None:
            assert_same_report(got, expected)
            for mine, theirs in zip(got.family.slot_decompositions, expected.family.slot_decompositions):
                assert mine.labels == theirs.labels
                assert mine.projectors.tobytes() == theirs.projectors.tobytes()


class TestCondition2:
    """Slot-wise commuting observers whose product family is inconsistent."""

    def test_pair_verdicts(self):
        a, b, c = resolve(parse_scenario(json.dumps(CONDITION2)))
        ab = check_compatibility(a, b)
        assert all(sc.commutes for sc in ab.per_slot_commutation)
        assert ab.verdict is Verdict.RELATIVE
        assert ab.failing_condition == "condition2"
        assert not ab.product_family_consistency.consistent
        assert ab.product_family_consistency.max_offdiag == pytest.approx(0.25, abs=1e-12)
        assert check_compatibility(a, c).failing_condition == "condition1"
        assert check_compatibility(b, c).verdict is Verdict.STABLE

    def test_not_combinable(self):
        with pytest.raises(NotCompatibleError, match="condition2"):
            combine_all(resolve(parse_scenario(json.dumps(CONDITION2))))


class TestCombine:
    def test_with_trivial_observer_is_isomorphic(self):
        o1, _ = stable_pair()
        trivial_slot = make_decomposition([I4], ["any"])
        passive = observer("P", [trivial_slot, trivial_slot])
        merged = combine(o1, passive)
        own = consistency_check(o1.family)
        assert len(merged.family.histories) == len(o1.family.histories)
        for (labels, p), (mlabels, mp) in zip(
            zip(own.family.histories, own.probabilities), zip(merged.family.histories, merged.probabilities)
        ):
            assert mlabels == tuple(f"{l}∧any" for l in labels)
            assert mp == pytest.approx(p, abs=1e-12)

    def test_stable_pair_product_family(self):
        report = combine(*stable_pair())
        # the cross products of the shared t1 measurement vanish, leaving
        # 2 x 4 = 8 histories, four of which carry probability 1/4
        assert len(report.family.histories) == 8
        assert report.consistent
        assert sorted(report.probabilities, reverse=True)[:4] == pytest.approx([0.25] * 4)
        assert float(np.sum(report.probabilities)) == pytest.approx(1.0, abs=1e-12)

    def test_marginalization(self):
        o1, o2 = stable_pair()
        merged = combine(o1, o2)
        for record, side in ((o1, 0), (o2, 1)):
            own = consistency_check(record.family)
            for labels, p in zip(own.family.histories, own.probabilities):
                mass = sum(
                    mp
                    for mlabels, mp in zip(merged.family.histories, merged.probabilities)
                    if tuple(l.split("∧")[side] for l in mlabels) == labels
                )
                assert mass == pytest.approx(p, abs=1e-9)

    def test_incompatible_pair_refused_with_report(self):
        with pytest.raises(NotCompatibleError) as excinfo:
            combine(*relative_pair())
        assert excinfo.value.report.verdict is Verdict.RELATIVE

    def test_combine_all_three_observers(self):
        o1, o2 = stable_pair()
        trivial_slot = make_decomposition([I4], ["any"])
        passive = observer("P", [trivial_slot, trivial_slot])
        assert combine_all([o1, o2, passive]).consistent

    @pytest.mark.parametrize("count", [0, 1])
    def test_combine_all_needs_two_observers(self, count):
        with pytest.raises(NotCompatibleError) as excinfo:
            combine_all(stable_pair()[:count])
        assert str(excinfo.value) == "need at least two observers to combine"


class TestConditionalProbability:
    def test_measurement_model_is_delta(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            for randomized in (False, True):
                fam, _ = measurement_model(n, rng if randomized else None)
                report = consistency_check(fam)
                assert report.consistent
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        p = conditional_probability(
                            report, FactQuery(event=("t1", f"s{i}"), condition=("t2", f"M{j}"))
                        )
                        assert p == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)

    def test_event_given_itself(self):
        fam, _ = measurement_model(2)
        p = conditional_probability(
            consistency_check(fam), FactQuery(event=("t1", "s1"), condition=("t1", "s1"))
        )
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_repeated_x_persistence(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("x")])
        p = conditional_probability(
            consistency_check(fam), FactQuery(event=("t1", "+x"), condition=("t2", "+x"))
        )
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_projector_valued_query(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("x")])
        plus = (I2 + SIGMA_X) / 2
        p = conditional_probability(
            consistency_check(fam), FactQuery(event=("t1", plus), condition=("t2", plus))
        )
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_family_refused(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("z")])
        with pytest.raises(InconsistentFamilyError):
            conditional_probability(
                consistency_check(fam), FactQuery(event=("t2", "+z"), condition=("t1", "+x"))
            )

    @pytest.mark.parametrize("operator", [(I2 + SIGMA_Z) / 2, I4])  # no such projector; the wrong shape
    def test_a_projector_matching_no_outcome_is_unknown(self, operator):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("x")])
        query = FactQuery(event=("t1", operator), condition=("t2", "+x"))
        with pytest.raises(UnknownLabelError) as excinfo:
            conditional_probability(consistency_check(fam), query)
        assert str(excinfo.value) == "no projector at 't1' matches the given operator"

    def test_zero_probability_condition_refused(self):
        fam, _ = measurement_model(2)
        with pytest.raises(ZeroProbabilityConditionError):
            conditional_probability(
                consistency_check(fam), FactQuery(event=("t2", "M1"), condition=("t1", "rest"))
            )

    def test_event_absent_from_family(self):
        # family that never resolves the s_i states at t1 cannot be asked
        # about them: nothing can be said inside this framework
        fam, _ = measurement_model(2)
        coarse = build_family(
            fam.initial_ket,
            fam.grid,
            [ev.unitary for ev in fam.evolutions],
            [[("phi0", np.outer(fam.initial_ket, fam.initial_ket.conj()))], fam.slot_decompositions[1]],
        )
        with pytest.raises(UnknownLabelError):
            conditional_probability(
                consistency_check(coarse), FactQuery(event=("t1", "s1"), condition=("t2", "M1"))
            )


class TestTotalProbabilityLaw:
    def test_coarse_grained_xz_family(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("z")])
        merged = coarse_grain(fam, {"t1": [("+x", "-x")]})
        check = check_total_probability_law(consistency_check(merged), ("t2", "+z"), "t1")
        assert check.holds
        assert check.lhs == pytest.approx(1.0, abs=1e-12)

    def test_measurement_model_collapses_to_single_term(self):
        fam, amplitudes = measurement_model(2)
        check = check_total_probability_law(consistency_check(fam), ("t2", "M1"), "t1")
        assert check.holds
        assert check.lhs == pytest.approx(abs(amplitudes[0]) ** 2, abs=1e-12)

    def test_zero_probability_event(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("z"), pauli_decomposition("z")])
        check = check_total_probability_law(consistency_check(fam), ("t2", "-z"), "t1")
        assert check.holds and check.lhs == pytest.approx(0.0, abs=1e-12)

    def test_same_time_rejected(self):
        fam, _ = measurement_model(2)
        with pytest.raises(BadTimesError):
            check_total_probability_law(consistency_check(fam), ("t1", "s1"), "t1")

    def test_inconsistent_family_refused(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("z")])
        with pytest.raises(InconsistentFamilyError):
            check_total_probability_law(consistency_check(fam), ("t2", "+z"), "t1")

    def test_consistency_checked_once(self, monkeypatch):
        calls = []

        def counted(family, tol):
            calls.append(family)
            return consistency_check(family, tol)

        monkeypatch.setattr(qhist.stablefacts, "consistency_check", counted)
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("x")])
        # the law reads the report it is given and solves nothing itself
        check = check_total_probability_law(counted(fam, DEFAULT_TOL), ("t2", "+x"), "t1")
        assert check.holds and len(calls) == 1

    def test_holds_for_every_pair_in_consistent_families(self, rng):
        checked = 0
        while checked < 25:
            fam = random_family(rng, int(rng.integers(2, 5)), 2, kind="repeated")
            report = consistency_check(fam)
            if not report.consistent:
                continue
            checked += 1
            for ev_slot, part_slot in ((0, 1), (1, 0)):
                ev_time = fam.grid.slot_times[ev_slot]
                part_time = fam.grid.slot_times[part_slot]
                for label in fam.slot_decompositions[ev_slot].labels:
                    check = check_total_probability_law(report, (ev_time, label), part_time)
                    assert check.holds, (check, label)


class TestInformationPreserved:
    def test_same_observable_identity_evolution(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("z"), pauli_decomposition("z")])
        assert information_preserved(fam, "t1", "t2")

    def test_incompatible_later_measurement_destroys_record(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("z"), pauli_decomposition("x")])
        assert not information_preserved(fam, "t1", "t2")

    def test_bit_flip_evolution_preserves_z_record(self):
        # sigma_x sigma_z sigma_x = -sigma_z, which still commutes with sigma_z
        fam = build_family(KET_UP, GRID, [I2, SIGMA_X], [pauli_decomposition("z"), pauli_decomposition("z")])
        assert information_preserved(fam, "t1", "t2")

    def test_the_pulled_decomposition_is_not_exact(self, monkeypatch):
        # conjugated projectors carry rounding, so they are validated like any others
        pulled = []

        def compatible(a, b, tol):
            pulled.append(b)
            return decompositions_compatible(a, b, tol)

        monkeypatch.setattr(qhist.stablefacts, "decompositions_compatible", compatible)
        (record,) = resolve(parse_scenario(json.dumps(CONDITION2)), observers=["A"])
        family = record.family
        assert all(isinstance(d, _ExactDecomposition) for d in family.slot_decompositions)
        assert information_preserved(family, "t1", "t3")
        later = family.slot_decompositions[2]
        assert type(pulled[0]) is ProjectiveDecomposition
        assert pulled[0].labels == later.labels and np.array_equal(pulled[0].projectors, later.projectors)

    def test_bad_times(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("z"), pauli_decomposition("z")])
        with pytest.raises(BadTimesError):
            information_preserved(fam, "t2", "t1")
        with pytest.raises(BadTimesError):
            information_preserved(fam, "t0", "t2")


def distinct_pairs(a: ObserverRecord, b: ObserverRecord) -> list[tuple[int, int]]:
    """The ids of the distinct slot pairs of two records, in order of first use."""
    pairs = zip(a.family.slot_decompositions, b.family.slot_decompositions)
    return list(dict.fromkeys((id(da), id(db)) for da, db in pairs))


class TestProductSlotsInOnePass:
    """``check_compatibility`` refines each distinct slot pair at most once,
    one pair at a time, only when condition 1 holds, and stops at the first
    fault."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_product_family_equals_a_per_slot_reference(self, seed):
        a, b = random_pair(seed)
        pairs = list(zip(a.family.slot_decompositions, b.family.slot_decompositions))
        try:
            expected = [make_decomposition(*reference_products(da, db)) for da, db in pairs]
        except QHistError:
            expected = None
        product = check_compatibility(a, b).product_family_consistency
        if expected is None:
            assert product is None
            return
        got = product.family.slot_decompositions
        assert [d.labels for d in got] == [d.labels for d in expected]
        assert [d.projectors.tobytes() for d in got] == [d.projectors.tobytes() for d in expected]

    def test_each_slot_is_multiplied_once(self, monkeypatch):
        calls = []

        def pair_products(da, db, tol):
            calls.append((da, db))
            return qhist.framework._pair_products(da, db, tol)

        def compatible(*args):
            raise AssertionError("check_compatibility multiplied a slot pair twice")

        monkeypatch.setattr(qhist.stablefacts, "_pair_products", pair_products)
        monkeypatch.setattr(qhist.stablefacts, "decompositions_compatible", compatible)
        verdicts, multiplied = [], []
        for a, b in itertools.combinations(resolve(parse_scenario(json.dumps(CONDITION2))), 2):
            calls.clear()
            verdicts.append(check_compatibility(a, b).failing_condition)
            assert [(id(da), id(db)) for da, db in calls] == distinct_pairs(a, b)
            multiplied.append(len(calls))
        assert verdicts == ["condition2", "condition1", None]
        assert multiplied == [2, 3, 3]  # A/B pairs (z, trivial) at t1 and t3

    @pytest.fixture
    def refined(self, monkeypatch) -> list[tuple[int, int]]:
        """The ids of each pair ``check_compatibility`` refines, in order."""
        calls = []

        def refinement(da, db, table, tol):
            calls.append((id(da), id(db)))
            return qhist.framework._refinement(da, db, table, tol)

        monkeypatch.setattr(qhist.stablefacts, "_refinement", refinement)
        return calls

    def test_each_distinct_pair_is_labelled_and_validated_once(self, refined):
        """A measures sigma_z and B a z axis tilted by 1e-5 rad at t1, and both
        sigma_x at t2.  The t1 pair does not commute within comm 1e-9, although
        its products are projectors within herm and proj 1e-3: condition 1
        fails, so no pair is refined.  In CONDITION2, A and B commute at all
        three slots, which pair two distinct decompositions: each is refined
        once."""
        tilt = 1e-5
        dx = pauli_decomposition("x")
        a = observer("A", [pauli_decomposition("z"), dx], ket=PLUS_X, dim=2)
        b = observer("B", [np.cos(tilt) * SIGMA_Z + np.sin(tilt) * SIGMA_X, dx], ket=PLUS_X, dim=2)
        report = check_compatibility(a, b, Tolerance(herm=1e-3, proj=1e-3, comm=1e-9))
        assert report.failing_condition == "condition1"
        assert report.product_family_consistency is None
        assert refined == []

        a, b, _ = resolve(parse_scenario(json.dumps(CONDITION2)))
        report = check_compatibility(a, b)
        assert report.failing_condition == "condition2"
        assert report.product_family_consistency is not None
        assert refined == distinct_pairs(a, b)
        assert len(refined) == 2 and len(report.per_slot_commutation) == 3

    def test_a_slot_is_labelled_only_when_validated(self, refined):
        for a, b in itertools.combinations(resolve(parse_scenario(json.dumps(CONDITION2))), 2):
            refined.clear()
            report = check_compatibility(a, b)
            if report.failing_condition == "condition1":
                # condition 2 is not evaluated: no slot is refined
                assert report.product_family_consistency is None
                assert refined == []
            else:
                assert refined == distinct_pairs(a, b)

    def test_records_of_one_resolve_compare_no_arrays(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qhist.stablefacts, "max_abs", lambda a: calls.append(a) or 0.0)
        a, b, _ = resolve(parse_scenario(json.dumps(CONDITION2)))
        check_compatibility(a, b)
        assert calls == []
        o1, o2 = stable_pair()  # built separately: equal arrays, other objects
        check_compatibility(o1, o2)
        assert len(calls) == 1 + len(o1.family.evolutions)


def plain(record: ObserverRecord) -> ObserverRecord:
    """The record with each distinct slot decomposition rebuilt as a plain
    ``ProjectiveDecomposition`` over the same projectors, which
    ``check_compatibility`` validates whatever they are."""
    copies = {}
    slots = tuple(
        copies.setdefault(id(d), ProjectiveDecomposition(d.dim, d.projectors, d.labels))
        for d in record.family.slot_decompositions
    )
    return ObserverRecord(record.name, dataclasses.replace(record.family, slot_decompositions=slots))


@st.composite
def named_scenarios(draw):
    """2-3 observers measuring nothing, the identity or a Pauli at each of
    1-3 slots of 1-3 qubits, with or without a qutrit factor.  The initial
    ket is a basis vector and each evolution the identity or a permutation,
    so that every number passes ``resolve``'s checks at tolerance 0 too."""
    n_qubits = draw(st.integers(1, 3))
    dims = [2] * n_qubits
    if draw(st.booleans()):
        dims.insert(draw(st.integers(0, n_qubits)), 3)
    qubits = [k for k, d in enumerate(dims, 1) if d == 2]
    pauli = st.builds("sigma_{}@{}".format, st.sampled_from("xyz"), st.sampled_from(qubits))
    spec = st.one_of(st.none(), st.just("identity"), pauli)
    n_slots = draw(st.integers(1, 3))
    observers = draw(st.lists(st.lists(spec, min_size=n_slots, max_size=n_slots), min_size=2, max_size=3))
    total = int(np.prod(dims))
    times = tuple(f"t{k}" for k in range(n_slots + 1))
    permutation = st.permutations(range(total)).map(lambda order: identity(total)[list(order)])
    return Scenario(
        name="named",
        subsystem_dims=tuple(dims),
        initial_state=identity(total)[draw(st.integers(0, total - 1))],
        times=times,
        evolutions=tuple(draw(st.one_of(st.just("identity"), permutation)) for _ in times[1:]),
        observers=tuple(
            ObserverSpec(f"O{i + 1}", tuple(Measurement(t, NamedObservable(n)) for t, n in zip(times[1:], names) if n))
            for i, names in enumerate(observers)
        ),
    )


def _refined(da, db, tol):
    """``refine``'s labels and projector bytes, or its error's type and message."""
    try:
        got = refine(da, db, tol)
    except QHistError as exc:
        return type(exc), str(exc)
    return got.labels, got.projectors.tobytes()


def _reference_refined(da, db, tol):
    """What ``refine`` gives when it validates: the reference products run
    through ``make_decomposition``, or the error either raises."""
    check = decompositions_compatible(da, db, tol)
    if not check.compatible:
        return _refined(da, db, tol)  # IncompatibleFrameworksError, raised before any product is built
    try:
        expected = make_decomposition(*reference_products(da, db, tol), tol)
    except QHistError as exc:
        return type(exc), str(exc)
    return expected.labels, expected.projectors.tobytes()


class TestExactProducts:
    """Products of exact decompositions (``resolve``'s named slots and their
    exactly commuting products) are built without validation, and are what
    validation would build."""

    @given(scn=named_scenarios())
    @settings(max_examples=100, deadline=None)
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance.uniform(0.0)], ids=["default", "zero"])
    def test_exact_products_are_what_validation_builds(self, tol, scn):
        records = resolve(scn, tol)
        for a, b in itertools.combinations(records, 2):
            pairs = list(zip(a.family.slot_decompositions, b.family.slot_decompositions))
            for da, db in pairs:
                assert _refined(da, db, tol) == _reference_refined(da, db, tol)
                check = decompositions_compatible(da, db, tol)
                if check.compatible:
                    exact = isinstance(da, _ExactDecomposition) and isinstance(db, _ExactDecomposition)
                    built_exact = isinstance(refine(da, db, tol), _ExactDecomposition)
                    assert built_exact == (exact and check.max_residual == 0.0)
            try:
                expected = [make_decomposition(*reference_products(da, db, tol), tol) for da, db in pairs]
            except QHistError:
                expected = None
            got = check_compatibility(a, b, tol)
            validated = check_compatibility(plain(a), plain(b), tol)
            assert (got.verdict, got.failing_condition) == (validated.verdict, validated.failing_condition)
            assert got.per_slot_commutation == validated.per_slot_commutation
            product = got.product_family_consistency
            assert (product is None) == (expected is None) == (validated.product_family_consistency is None)
            if product is None:
                continue
            assert (product.consistent, product.max_offdiag) == (
                validated.product_family_consistency.consistent,
                validated.product_family_consistency.max_offdiag,
            )
            slots = product.family.slot_decompositions
            assert [d.labels for d in slots] == [d.labels for d in expected]
            assert [d.projectors.tobytes() for d in slots] == [d.projectors.tobytes() for d in expected]

    @pytest.fixture
    def validated(self, monkeypatch) -> list[tuple[str, ...]]:
        """The labels of each slot ``framework._validated`` checks."""
        calls = []
        validated = qhist.framework._validated

        def counted(stack, labels, tol):
            calls.append(tuple(labels))
            return validated(stack, labels, tol)

        monkeypatch.setattr(qhist.framework, "_validated", counted)
        return calls

    def test_named_pairs_that_commute_exactly_are_not_validated(self, validated):
        a, b, c = resolve(parse_scenario(json.dumps(CONDITION2)))
        validated.clear()  # resolve validates nothing here; the pairs below must not either
        assert check_compatibility(a, b).failing_condition == "condition2"
        assert check_compatibility(b, c).verdict is Verdict.STABLE
        for da, db in zip(b.family.slot_decompositions, c.family.slot_decompositions):
            assert isinstance(refine(da, db), _ExactDecomposition)
        assert validated == []

    def test_a_pair_with_a_nonzero_residual_is_not_refined(self, validated):
        a, _, c = resolve(parse_scenario(json.dumps(CONDITION2)))
        report = check_compatibility(a, c)
        assert report.failing_condition == "condition1" and report.product_family_consistency is None
        # the t1 pair (sigma_z, sigma_x) does not commute, so condition 2 is
        # not evaluated: no product, exact or not, is built or validated
        assert validated == []

    @pytest.mark.parametrize(
        "observable, products",
        [
            ({"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, ("+z∧ev1=1", "-z∧ev0=-1")),
            ({"projectors": [{"label": "up", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}]},
             ("+z∧up", "-z∧rest")),
        ],
        ids=["matrix", "projector_list"],
    )
    def test_a_pair_with_a_factor_that_is_not_named_is_validated(self, validated, observable, products):
        doc = {**CONDITION2, "observers": [
            {"name": "A", "measurements": [{"time": "t1", "observable": "sigma_z"}]},
            {"name": "B", "measurements": [{"time": "t1", "observable": observable}]},
        ]}
        a, b = resolve(parse_scenario(json.dumps(doc)))
        validated.clear()
        report = check_compatibility(a, b)
        assert report.verdict is Verdict.STABLE
        # t1 pairs sigma_z with the observable; t2 and t3 pair the trivial slots, which are exact
        assert validated == [products]
        assert not isinstance(report.product_family_consistency.family.slot_decompositions[0], _ExactDecomposition)

    def test_the_fold_into_observers_o3_validates_nothing(self, observers_paths, validated):
        records = resolve(parse_scenario(observers_paths["all"].read_bytes()))
        o1, o2, o3, _ = records
        validated.clear()
        with pytest.raises(NotCompatibleError) as info:
            combine_all([o1, o2, o3])
        assert info.value.report.failing_condition == "condition1"
        # O1 and O2 measure only named observables: their products are built
        # exact; O3's t1 (sigma_y on qubit a) fails to commute with theirs
        # (sigma_z on a), so no product with O3's is built or validated
        assert info.value.report.product_family_consistency is None
        assert validated == []


def _pauli_scenario(n_qubits: int, presets: list[str], observers: list[list]) -> dict:
    times = [f"t{k}" for k in range(len(observers[0]) + 1)]
    return {
        "format": 1,
        "name": "pauli_observers",
        "systems": [2] * n_qubits,
        "initial_state": presets,
        "times": times,
        "observers": [
            {
                "name": f"O{i + 1}",
                "measurements": [
                    {"time": t, "observable": f"sigma_{slot[0]}@{slot[1]}"}
                    for t, slot in zip(times[1:], slots)
                    if slot is not None
                ],
            }
            for i, slots in enumerate(observers)
        ],
    }


@st.composite
def pauli_observers(draw):
    """3-4 observers measuring random Paulis (or nothing) at 1-3 slots of 1-3 qubits."""
    n_qubits = draw(st.integers(1, 3))
    n_slots = draw(st.integers(1, 3))
    slot = st.one_of(st.none(), st.tuples(st.sampled_from("xyz"), st.integers(1, n_qubits)))
    observers = draw(st.lists(st.lists(slot, min_size=n_slots, max_size=n_slots), min_size=3, max_size=4))
    presets = draw(st.lists(st.sampled_from(["up_z", "down_z", "plus_x", "minus_x", "plus_y", "minus_y"]),
                            min_size=n_qubits, max_size=n_qubits))
    order = draw(st.permutations(range(len(observers))))
    return _pauli_scenario(n_qubits, presets, observers), order


def _fold(records):
    try:
        return combine_all(records)
    except NotCompatibleError:
        return None


class TestCombineOrder:
    """The n-way fold of ``combine_all`` does not depend on the observers' order."""

    @given(pauli_observers())
    @settings(max_examples=100, deadline=None)
    def test_permuting_observers_keeps_the_combined_family(self, drawn):
        doc, order = drawn
        records = resolve(parse_scenario(json.dumps(doc)))
        first, other = _fold(records), _fold([records[i] for i in order])
        assert (first is None) == (other is None)
        if first is None:
            return
        for da, db in zip(first.family.slot_decompositions, other.family.slot_decompositions):
            assert sorted(p.tobytes() for p in da.projectors) == sorted(p.tobytes() for p in db.projectors)
        assert abs(first.max_offdiag - other.max_offdiag) <= 1e-12
