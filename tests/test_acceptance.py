"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Tolerances are pinned here, not configured.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qhist import cli
from qhist.errors import UnknownLabelError
from qhist.histories import build_family, coarse_grain, consistency_check
from qhist.oracle import sequential_probability
from qhist.scenario import parse_scenario, resolve, serialize_scenario
from qhist.stablefacts import (
    FactQuery,
    Verdict,
    check_compatibility,
    check_total_probability_law,
    combine,
    conditional_probability,
)

from helpers import (
    GALLERY_NAMES,
    chain_ket_probability,
    full_gram,
    gallery,
    measurement_model,
    random_decomposition,
    random_family,
    random_scenario,
    random_state,
    random_unitary,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def test_criterion_1_shared_x_with_commuting_t2_observables_is_stable(capsys):
    with criterion(1, "stable pair on two qubits"):
        start = time.perf_counter()
        records = resolve(parse_scenario(gallery("stable_facts").read_bytes()))
        report = check_compatibility(records[0], records[1])
        assert report.verdict is Verdict.STABLE
        combined = combine(records[0], records[1])
        assert combined.max_offdiag <= 1e-9
        assert cli.main(["classify", str(gallery("stable_facts"))]) == 0
        out = capsys.readouterr().out
        assert "stable" in out
        assert time.perf_counter() - start < 1.0


def test_criterion_2_x_vs_y_observers_are_relative(capsys):
    with criterion(2, "x vs y at t1 is relative"):
        start = time.perf_counter()
        records = resolve(parse_scenario(gallery("relative_facts").read_bytes()))
        report = check_compatibility(records[0], records[1])
        assert report.verdict is Verdict.RELATIVE
        assert report.failing_condition == "condition1"
        t1 = report.per_slot_commutation[0]
        assert t1.time == "t1"
        assert not t1.commutes
        # [(1+-sx)/2, (1+-sy)/2] has every entry of magnitude 1/2
        assert t1.max_residual == pytest.approx(0.5, abs=1e-12)
        assert cli.main(["classify", str(gallery("relative_facts"))]) == 0
        out = capsys.readouterr().out
        assert "relative" in out
        assert time.perf_counter() - start < 1.0


def test_criterion_3_measurement_family_conditional_is_delta():
    with criterion(3, "pointer readout conditional is a delta"):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            fam, _ = measurement_model(n, rng)
            report = consistency_check(fam)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    p = conditional_probability(
                        report, FactQuery(event=("t1", f"s{i}"), condition=("t2", f"M{j}"))
                    )
                    assert abs(p - (1.0 if i == j else 0.0)) <= 1e-9


def test_criterion_4_unresolved_states_cannot_be_queried():
    with criterion(4, "family without s-states refuses the query"):
        records = resolve(parse_scenario(gallery("measurement_fam2").read_bytes()))
        family = records[0].family
        assert "s1" not in family.slot_decompositions[0].labels
        with pytest.raises(UnknownLabelError):
            conditional_probability(
                consistency_check(family), FactQuery(event=("t1", "s1"), condition=("t2", "M1"))
            )
        assert cli.main(
            [
                "conditional", str(gallery("measurement_fam2")),
                "--family", "O1", "--event", "t1:s1", "--given", "t2:M1",
            ]
        ) == 3


def test_criterion_5_consistent_families_obey_classical_probability():
    with criterion(5, "probability axioms on random families"):
        rng = np.random.default_rng(5)
        families = []
        for k in range(120):
            d = int(rng.integers(2, 5))
            n_slots = int(rng.integers(2, 4))
            kind = "repeated" if k % 2 == 0 else "generic"
            families.append(random_family(rng, d, n_slots, kind=kind))
        assert len(families) >= 100
        consistent = 0
        for fam in families:
            report = consistency_check(fam)
            if not report.consistent:
                continue
            consistent += 1
            assert abs(float(np.sum(report.probabilities)) - 1.0) <= 1e-9
            for ev_slot in range(fam.n_slots):
                ev_time = fam.grid.slot_times[ev_slot]
                for part_slot in range(fam.n_slots):
                    if part_slot == ev_slot:
                        continue
                    part_time = fam.grid.slot_times[part_slot]
                    for label in fam.slot_decompositions[ev_slot].labels:
                        check = check_total_probability_law(report, (ev_time, label), part_time)
                        assert abs(check.lhs - check.rhs) <= 1e-8
        assert consistent >= 50  # the transported-observable half is consistent by design


def test_criterion_6_oracle_agrees_on_every_history():
    with criterion(6, "chain kets match the sequential Born rule"):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        families = []
        for name in GALLERY_NAMES:
            families.extend(
                r.family for r in resolve(parse_scenario(gallery(name).read_bytes()))
            )
        for _ in range(30):
            families.append(random_family(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4))))
        for d, n_slots, count in ((6, 3, 10), (8, 4, 2)):
            for _ in range(count):
                grid = ["t0"] + [f"t{k + 1}" for k in range(n_slots)]
                evolutions = [random_unitary(rng, d) for _ in range(n_slots)]
                slots = [random_decomposition(rng, d, n_blocks=d) for _ in range(n_slots)]
                families.append(build_family(random_state(rng, d), grid, evolutions, slots))
        total = 0
        for fam in families:
            for labels in fam.histories:
                total += 1
                delta = abs(
                    chain_ket_probability(fam, labels) - sequential_probability(fam, labels)
                )
                assert delta <= 1e-12
        assert total >= 10_000
        assert time.perf_counter() - start < 30.0


def test_criterion_7_zxz_gram_overlap_is_one_quarter():
    with criterion(7, "z,x,z off-diagonal overlap"):
        records = resolve(parse_scenario(gallery("zxz_inconsistent").read_bytes()))
        report = consistency_check(records[0].family)
        assert not report.consistent
        i = report.family.histories.index(("+x", "+z"))
        j = report.family.histories.index(("-x", "+z"))
        assert abs(full_gram(report)[i, j]) == pytest.approx(0.25, abs=1e-12)


def test_criterion_8_merging_the_x_slot_restores_consistency():
    with criterion(8, "coarse-graining the z,x,z family"):
        records = resolve(parse_scenario(gallery("zxz_inconsistent").read_bytes()))
        merged = coarse_grain(records[0].family, {"t1": [("+x", "-x")]})
        report = consistency_check(merged)
        assert report.consistent
        assert len(merged.histories) == 2
        assert sorted(report.probabilities) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_criterion_9_scenario_round_trip():
    with criterion(9, "parse/serialize structural identity"):
        rng = np.random.default_rng(9)
        failures = 0
        for _ in range(500):
            scn = random_scenario(rng)
            data = serialize_scenario(scn)
            if parse_scenario(data) != scn or serialize_scenario(parse_scenario(data)) != data:
                failures += 1
        assert failures == 0
