import numpy as np
import pytest

import qhist.stablefacts
from qhist.errors import (
    BadTimesError,
    InconsistentFamilyError,
    MismatchedScenarioError,
    NotCompatibleError,
    UnknownLabelError,
    ZeroProbabilityConditionError,
)
from qhist.framework import make_decomposition
from qhist.histories import build_family, coarse_grain, consistency_check
from qhist.linalg import SIGMA_X, identity
from qhist.stablefacts import (
    FactQuery,
    ObserverRecord,
    Verdict,
    check_compatibility,
    check_total_probability_law,
    combine,
    combine_all,
    conditional_probability,
    information_preserved,
)

from helpers import (
    KET_UP,
    measurement_model,
    pauli_decomposition,
    random_family,
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


class TestCombine:
    def test_with_trivial_observer_is_isomorphic(self):
        o1, _ = stable_pair()
        trivial_slot = make_decomposition([I4], ["any"])
        passive = observer("P", [trivial_slot, trivial_slot])
        fam = combine(o1, passive)
        own = consistency_check(o1.family)
        merged = consistency_check(fam)
        assert len(fam.histories) == len(o1.family.histories)
        for (labels, p), (mlabels, mp) in zip(
            zip(own.labels, own.probabilities), zip(merged.labels, merged.probabilities)
        ):
            assert mlabels == tuple(f"{l}∧any" for l in labels)
            assert mp == pytest.approx(p, abs=1e-12)

    def test_stable_pair_product_family(self):
        fam = combine(*stable_pair())
        # the cross products of the shared t1 measurement vanish, leaving
        # 2 x 4 = 8 histories, four of which carry probability 1/4
        assert len(fam.histories) == 8
        report = consistency_check(fam)
        assert report.consistent
        assert sorted(report.probabilities, reverse=True)[:4] == pytest.approx([0.25] * 4)
        assert float(np.sum(report.probabilities)) == pytest.approx(1.0, abs=1e-12)

    def test_marginalization(self):
        o1, o2 = stable_pair()
        fam = combine(o1, o2)
        merged = consistency_check(fam)
        for record, side in ((o1, 0), (o2, 1)):
            own = consistency_check(record.family)
            for labels, p in zip(own.labels, own.probabilities):
                mass = sum(
                    mp
                    for mlabels, mp in zip(merged.labels, merged.probabilities)
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
        fam = combine_all([o1, o2, passive])
        assert consistency_check(fam).consistent


class TestConditionalProbability:
    def test_measurement_model_is_delta(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            for randomized in (False, True):
                fam, _ = measurement_model(n, rng if randomized else None)
                assert consistency_check(fam).consistent
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        p = conditional_probability(
                            fam, FactQuery(event=("t1", f"s{i}"), condition=("t2", f"M{j}"))
                        )
                        assert p == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)

    def test_event_given_itself(self):
        fam, _ = measurement_model(2)
        p = conditional_probability(fam, FactQuery(event=("t1", "s1"), condition=("t1", "s1")))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_repeated_x_persistence(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("x")])
        p = conditional_probability(fam, FactQuery(event=("t1", "+x"), condition=("t2", "+x")))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_projector_valued_query(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("x")])
        plus = (I2 + SIGMA_X) / 2
        p = conditional_probability(fam, FactQuery(event=("t1", plus), condition=("t2", plus)))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_family_refused(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("z")])
        with pytest.raises(InconsistentFamilyError):
            conditional_probability(fam, FactQuery(event=("t2", "+z"), condition=("t1", "+x")))

    def test_zero_probability_condition_refused(self):
        fam, _ = measurement_model(2)
        with pytest.raises(ZeroProbabilityConditionError):
            conditional_probability(fam, FactQuery(event=("t2", "M1"), condition=("t1", "rest")))

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
            conditional_probability(coarse, FactQuery(event=("t1", "s1"), condition=("t2", "M1")))


class TestTotalProbabilityLaw:
    def test_coarse_grained_xz_family(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("z")])
        merged = coarse_grain(fam, {"t1": [("+x", "-x")]})
        check = check_total_probability_law(merged, ("t2", "+z"), "t1")
        assert check.holds
        assert check.lhs == pytest.approx(1.0, abs=1e-12)

    def test_measurement_model_collapses_to_single_term(self):
        fam, amplitudes = measurement_model(2)
        check = check_total_probability_law(fam, ("t2", "M1"), "t1")
        assert check.holds
        assert check.lhs == pytest.approx(abs(amplitudes[0]) ** 2, abs=1e-12)

    def test_zero_probability_event(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("z"), pauli_decomposition("z")])
        check = check_total_probability_law(fam, ("t2", "-z"), "t1")
        assert check.holds and check.lhs == pytest.approx(0.0, abs=1e-12)

    def test_same_time_rejected(self):
        fam, _ = measurement_model(2)
        with pytest.raises(BadTimesError):
            check_total_probability_law(fam, ("t1", "s1"), "t1")

    def test_inconsistent_family_refused(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("z")])
        with pytest.raises(InconsistentFamilyError):
            check_total_probability_law(fam, ("t2", "+z"), "t1")

    def test_consistency_checked_once(self, monkeypatch):
        calls = []

        def counted(family, tol):
            calls.append(family)
            return consistency_check(family, tol)

        monkeypatch.setattr(qhist.stablefacts, "consistency_check", counted)
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("x"), pauli_decomposition("x")])
        check = check_total_probability_law(fam, ("t2", "+x"), "t1")
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
                    check = check_total_probability_law(fam, (ev_time, label), part_time)
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

    def test_bad_times(self):
        fam = build_family(KET_UP, GRID, [I2, I2], [pauli_decomposition("z"), pauli_decomposition("z")])
        with pytest.raises(BadTimesError):
            information_preserved(fam, "t2", "t1")
        with pytest.raises(BadTimesError):
            information_preserved(fam, "t0", "t2")
