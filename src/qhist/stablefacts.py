"""Classifying facts shared between observers as stable or relative.

Each observer holds a history family over the same scenario (same dimension,
grid, initial ket, and evolutions).  Two observers' facts are *stable* when
their families can be merged into one framework, which requires exactly two
things: (1) their slot decompositions commute at every time, and (2) the
slot-wise product family is itself consistent.  Facts are *relative* whenever
either condition fails.  Probabilistic queries (conditional probabilities and
the total-probability law) are served only inside a single consistent family;
asking them of an inconsistent family is refused, not answered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BadTimesError,
    InconsistentFamilyError,
    MismatchedScenarioError,
    NotCompatibleError,
    QHistError,
    UnknownLabelError,
    ZeroProbabilityConditionError,
)
from .framework import CommutationCheck, _products, decompositions_compatible
from .histories import (
    DEFAULT_MAX_HISTORIES,
    ConsistencyReport,
    HistoryFamily,
    _assemble_family,
    consistency_check,
)
from .linalg import DEFAULT_TOL, Tolerance, commutator, max_abs

__all__ = [
    "ObserverRecord",
    "Verdict",
    "SlotCommutation",
    "CompatibilityReport",
    "FactQuery",
    "TotalProbabilityCheck",
    "check_compatibility",
    "combine",
    "combine_all",
    "conditional_probability",
    "check_total_probability_law",
    "information_preserved",
]


@dataclass(frozen=True, eq=False)
class ObserverRecord:
    """An observer's name and the history family encoding its facts."""

    name: str
    family: HistoryFamily


class Verdict(enum.Enum):
    STABLE = "stable"
    RELATIVE = "relative"


class SlotCommutation(NamedTuple):
    time: str
    max_residual: float
    commutes: bool
    worst_pair: tuple[str, str] | None


@dataclass(frozen=True, eq=False)
class CompatibilityReport:
    """Evidence for the two-condition test between a pair of observers.

    ``product_family_consistency`` is None when the slot products were not
    well-formed decompositions (possible only when condition 1 already
    failed), in which case condition 2 is marked skipped rather than failed.
    """

    observer_a: str
    observer_b: str
    per_slot_commutation: tuple[SlotCommutation, ...]
    product_family_consistency: ConsistencyReport | None
    verdict: Verdict
    failing_condition: str | None  # None | "condition1" | "condition2"


def _require_shared_scenario(a: ObserverRecord, b: ObserverRecord, tol: Tolerance) -> None:
    fa, fb = a.family, b.family
    if fa.dim != fb.dim:
        raise MismatchedScenarioError(f"dims differ: {fa.dim} vs {fb.dim}")
    if fa.grid.labels != fb.grid.labels:
        raise MismatchedScenarioError(f"grids differ: {fa.grid.labels} vs {fb.grid.labels}")
    if max_abs(fa.initial_ket - fb.initial_ket) > tol.norm:
        raise MismatchedScenarioError("initial kets differ")
    for ea, eb in zip(fa.evolutions, fb.evolutions):
        if max_abs(ea.unitary - eb.unitary) > tol.herm:
            raise MismatchedScenarioError(f"evolutions differ on {ea.start} -> {ea.end}")


def _compatibility(
    a: ObserverRecord, b: ObserverRecord, tol: Tolerance
) -> tuple[CompatibilityReport, HistoryFamily | None]:
    _require_shared_scenario(a, b, tol)
    fa, fb = a.family, b.family
    per_slot = []
    for time, da, db in zip(fa.grid.slot_times, fa.slot_decompositions, fb.slot_decompositions):
        check: CommutationCheck = decompositions_compatible(da, db, tol)
        per_slot.append(SlotCommutation(time, check.max_residual, check.compatible, check.worst_pair))
    condition1 = all(sc.commutes for sc in per_slot)

    # the slot-wise products {K_i Y_j}; they may fail to form decompositions
    # only when condition 1 already failed, and condition 2 is then skipped
    product_family = product_report = None
    try:
        slots = [_products(da, db, tol) for da, db in zip(fa.slot_decompositions, fb.slot_decompositions)]
    except QHistError:
        pass
    else:
        product_family = _assemble_family(
            fa.initial_ket, fa.grid, fa.evolutions, slots, tol, DEFAULT_MAX_HISTORIES
        )
        product_report = consistency_check(product_family, tol)

    if not condition1:
        failing = "condition1"
        verdict = Verdict.RELATIVE
    elif product_report is None or not product_report.consistent:
        failing = "condition2"
        verdict = Verdict.RELATIVE
    else:
        failing = None
        verdict = Verdict.STABLE
    report = CompatibilityReport(
        observer_a=a.name,
        observer_b=b.name,
        per_slot_commutation=tuple(per_slot),
        product_family_consistency=product_report,
        verdict=verdict,
        failing_condition=failing,
    )
    return report, (product_family if verdict is Verdict.STABLE else None)


def check_compatibility(
    a: ObserverRecord, b: ObserverRecord, tol: Tolerance = DEFAULT_TOL
) -> CompatibilityReport:
    """The two-condition test: slot-wise commutation, then consistency of the
    slot-wise product family.  Stable iff both hold."""
    report, _ = _compatibility(a, b, tol)
    return report


def combine(
    a: ObserverRecord, b: ObserverRecord, tol: Tolerance = DEFAULT_TOL
) -> HistoryFamily:
    """The combined (slot-wise product) family of a Stable pair."""
    report, family = _compatibility(a, b, tol)
    if report.verdict is not Verdict.STABLE or family is None:
        raise NotCompatibleError(
            f"observers {a.name!r} and {b.name!r} fail {report.failing_condition}; "
            "their facts are relative, not stable",
            report=report,
        )
    return family


def combine_all(
    records: Sequence[ObserverRecord], tol: Tolerance = DEFAULT_TOL
) -> HistoryFamily:
    """Left fold of pairwise combination over two or more observers.

    The n-way product family is an extension beyond the pairwise test and is
    reported as such by the CLI.
    """
    if len(records) < 2:
        raise NotCompatibleError("need at least two observers to combine")
    acc = records[0]
    for nxt in records[1:]:
        combined = combine(acc, nxt, tol)
        acc = ObserverRecord(name=f"{acc.name}+{nxt.name}", family=combined)
    return acc.family


@dataclass(frozen=True, eq=False)
class FactQuery:
    """P(event | condition) inside one family; each side is (time, label or projector)."""

    event: tuple
    condition: tuple


class TotalProbabilityCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def _resolve_outcome(family: HistoryFamily, time: str, outcome, tol: Tolerance) -> tuple[int, str]:
    slot = family.grid.slot_index(time)
    decomp = family.slot_decompositions[slot]
    if isinstance(outcome, str):
        decomp.index(outcome)
        return slot, outcome
    target = np.asarray(outcome, dtype=complex)
    for label, projector in decomp.items():
        if projector.shape == target.shape and max_abs(projector - target) <= tol.proj:
            return slot, label
    raise UnknownLabelError(f"no projector at {time!r} matches the given operator")


def _event_mass(report: ConsistencyReport, *events: tuple[int, str]) -> float:
    """Total probability of the histories that carry every (slot, label) of
    ``events``, summed over the other slots of the outcome tensor."""
    index: list = [slice(None)] * len(report.slot_labels)
    for slot, label in events:
        k = report.slot_labels[slot].index(label)
        if isinstance(index[slot], int) and index[slot] != k:
            return 0.0
        index[slot] = k
    tensor = report.probabilities.reshape([len(labels) for labels in report.slot_labels])
    return float(tensor[tuple(index)].sum())


def _conditional(
    family: HistoryFamily, report: ConsistencyReport, event: tuple, condition: tuple, tol: Tolerance
) -> float:
    """P(event | condition) from the report of a consistent family."""
    ev = _resolve_outcome(family, event[0], event[1], tol)
    cond = _resolve_outcome(family, condition[0], condition[1], tol)
    cond_mass = _event_mass(report, cond)
    if cond_mass <= tol.cons:
        raise ZeroProbabilityConditionError(
            f"condition {cond[1]!r} at {condition[0]!r} has probability {cond_mass:.3e}"
        )
    return _event_mass(report, ev, cond) / cond_mass


def conditional_probability(
    family: HistoryFamily, query: FactQuery, tol: Tolerance = DEFAULT_TOL
) -> float:
    """P(event | condition) within a single consistent family.

    Refuses inconsistent families outright: probabilities drawn from them do
    not obey the classical rules, so no number is returned.
    """
    report = consistency_check(family, tol)
    if not report.consistent:
        raise InconsistentFamilyError(
            "single-framework rule: family is inconsistent (max off-diagonal "
            f"overlap {report.max_offdiag:.3e}), so it supports no probabilistic reasoning"
        )
    return _conditional(family, report, query.event, query.condition, tol)


def check_total_probability_law(
    family: HistoryFamily,
    event: tuple,
    partition_time: str,
    tol: Tolerance = DEFAULT_TOL,
) -> TotalProbabilityCheck:
    """P(event) vs the partition sum over outcomes at another time.

    Inside one consistent family the law is an identity; ``holds`` allows
    10 * tol.cons of numerical slack.  Partition outcomes with probability
    at or below tol.cons are skipped (conditioning on them is undefined).
    The family's consistency is checked once for the whole sum.
    """
    report = consistency_check(family, tol)
    if not report.consistent:
        raise InconsistentFamilyError("total-probability law is only meaningful inside a consistent family")
    ev_time, ev_outcome = event
    ev_slot, ev_label = _resolve_outcome(family, ev_time, ev_outcome, tol)
    part_slot = family.grid.slot_index(partition_time)
    if part_slot == ev_slot:
        raise BadTimesError("partition time must differ from the event time")
    lhs = _event_mass(report, (ev_slot, ev_label))
    rhs = 0.0
    for label in family.slot_decompositions[part_slot].labels:
        mass = _event_mass(report, (part_slot, label))
        if mass <= tol.cons:
            continue
        rhs += _conditional(family, report, (ev_time, ev_label), (partition_time, label), tol) * mass
    return TotalProbabilityCheck(lhs, rhs, abs(lhs - rhs) <= 10.0 * tol.cons)


def information_preserved(
    family: HistoryFamily, record_time: str, later_time: str, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether the later measurement leaves the record's observable intact.

    Operationalized as: pull the later slot's decomposition back through the
    intervening evolutions (conjugation by their product) and require it to
    commute with the record slot's decomposition.
    """
    rec = family.grid.slot_index(record_time)
    lat = family.grid.slot_index(later_time)
    if rec >= lat:
        raise BadTimesError(f"{record_time!r} must precede {later_time!r} on the grid")
    transport = None
    for ev in family.evolutions[rec + 1 : lat + 1]:
        transport = ev.unitary if transport is None else ev.unitary @ transport
    record_decomp = family.slot_decompositions[rec]
    later_decomp = family.slot_decompositions[lat]
    for q in later_decomp.projectors:
        pulled = transport.conj().T @ q @ transport
        for p in record_decomp.projectors:
            if max_abs(commutator(pulled, p)) > tol.comm:
                return False
    return True
