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
from .framework import (
    ProjectiveDecomposition,
    _pair_products,
    _refinement,
    decompositions_compatible,
)
from .histories import (
    DEFAULT_MAX_HISTORIES,
    ConsistencyReport,
    HistoryFamily,
    _assemble_family,
    consistency_check,
)
from .linalg import DEFAULT_TOL, Tolerance, max_abs, max_abs_each

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

    ``product_family_consistency`` is None when condition 2 was skipped:
    condition 1 failed, or the slot products do not form decompositions,
    which they need not when ``tol.comm`` is looser than ``tol.herm`` or
    ``tol.proj`` (the pair then fails condition 2).
    """

    observer_a: str
    observer_b: str
    per_slot_commutation: tuple[SlotCommutation, ...]
    product_family_consistency: ConsistencyReport | None
    verdict: Verdict
    failing_condition: str | None  # None | "condition1" | "condition2"


def _require_shared_scenario(a: ObserverRecord, b: ObserverRecord, tol: Tolerance) -> None:
    """Equal dims and grids, and initial kets and unitaries equal within
    tolerance.  An array is not compared with itself: the difference of a
    checked (finite) array with itself is exactly 0, and the records of one
    ``resolve`` share their ket and unitaries."""
    fa, fb = a.family, b.family
    if fa.dim != fb.dim:
        raise MismatchedScenarioError(f"dims differ: {fa.dim} vs {fb.dim}")
    if fa.grid.labels != fb.grid.labels:
        raise MismatchedScenarioError(f"grids differ: {fa.grid.labels} vs {fb.grid.labels}")
    if fa.initial_ket is not fb.initial_ket and max_abs(fa.initial_ket - fb.initial_ket) > tol.norm:
        raise MismatchedScenarioError("initial kets differ")
    for ea, eb in zip(fa.evolutions, fb.evolutions):
        if ea.unitary is not eb.unitary and max_abs(ea.unitary - eb.unitary) > tol.herm:
            raise MismatchedScenarioError(f"evolutions differ on {ea.start} -> {ea.end}")


def check_compatibility(
    a: ObserverRecord,
    b: ObserverRecord,
    tol: Tolerance = DEFAULT_TOL,
    max_histories: int = DEFAULT_MAX_HISTORIES,
) -> CompatibilityReport:
    """The two-condition test: slot-wise commutation, then, only when that
    holds, consistency of the slot-wise product family, whose histories are
    capped at ``max_histories``.  Stable iff both hold; the product family
    is then ``report.product_family_consistency.family``.

    Slots that pair the same two decomposition objects (``resolve`` gives each
    distinct measurement one) share one product table per call: each distinct
    pair is multiplied once, in order of first use, and refined
    (``framework._refinement``) once, when condition 1 holds, for all its
    slots.  ``per_slot_commutation`` still has a row per slot."""
    _require_shared_scenario(a, b, tol)
    fa, fb = a.family, b.family
    # a decomposition hashes by identity (eq=False), and the families hold
    # every one for the whole call, so a slot's pair of them is a key
    slot_pairs = list(zip(fa.slot_decompositions, fb.slot_decompositions))
    products = {pair: _pair_products(*pair, tol) for pair in dict.fromkeys(slot_pairs)}
    per_slot = []
    for time, pair in zip(fa.grid.slot_times, slot_pairs):
        check = products[pair].check
        per_slot.append(SlotCommutation(time, check.max_residual, check.compatible, check.worst_pair))
    condition1 = all(sc.commutes for sc in per_slot)

    # the products {K_i Y_j} of each distinct pair, refined one pair at a
    # time up to the first whose products fail to form a decomposition,
    # which they may when comm is looser than herm or proj
    product_report = None
    if condition1:
        try:
            product_of = {pair: _refinement(*pair, table, tol) for pair, table in products.items()}
        except (QHistError, ValueError):
            pass
        else:
            slots = [product_of[pair] for pair in slot_pairs]
            product_family = _assemble_family(fa.initial_ket, fa.grid, fa.evolutions, slots, max_histories)
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
    return CompatibilityReport(
        observer_a=a.name,
        observer_b=b.name,
        per_slot_commutation=tuple(per_slot),
        product_family_consistency=product_report,
        verdict=verdict,
        failing_condition=failing,
    )


def combine(
    a: ObserverRecord,
    b: ObserverRecord,
    tol: Tolerance = DEFAULT_TOL,
    max_histories: int = DEFAULT_MAX_HISTORIES,
) -> ConsistencyReport:
    """The consistency report of the combined (slot-wise product) family of
    a Stable pair; its ``family`` is the combined family."""
    report = check_compatibility(a, b, tol, max_histories)
    if report.verdict is not Verdict.STABLE:
        raise NotCompatibleError(
            f"observers {a.name!r} and {b.name!r} fail {report.failing_condition}; "
            "their facts are relative, not stable",
            report=report,
        )
    return report.product_family_consistency


def combine_all(
    records: Sequence[ObserverRecord],
    tol: Tolerance = DEFAULT_TOL,
    max_histories: int = DEFAULT_MAX_HISTORIES,
) -> ConsistencyReport:
    """Left fold of pairwise combination over two or more observers; the
    report of the last step's product family, which is the combined family.

    The n-way product family is an extension beyond the pairwise test and is
    reported as such by the CLI.
    """
    if len(records) < 2:
        raise NotCompatibleError("need at least two observers to combine")
    acc = records[0]
    for nxt in records[1:]:
        report = combine(acc, nxt, tol, max_histories)
        acc = ObserverRecord(name=f"{acc.name}+{nxt.name}", family=report.family)
    return report


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
    if target.shape == decomp.projectors.shape[1:]:
        hits = np.flatnonzero(max_abs_each(decomp.projectors - target) <= tol.proj)
        if hits.size:
            return slot, decomp.labels[hits[0]]
    raise UnknownLabelError(f"no projector at {time!r} matches the given operator")


def _event_mass(report: ConsistencyReport, *events: tuple[int, str]) -> float:
    """Total probability of the histories that carry every (slot, label) of
    ``events``, summed over the other slots of the outcome tensor."""
    decomps = report.family.slot_decompositions
    index: list = [slice(None)] * len(decomps)
    for slot, label in events:
        k = decomps[slot].index(label)
        if isinstance(index[slot], int) and index[slot] != k:
            return 0.0
        index[slot] = k
    return float(report.probabilities.reshape(report.family.shape)[tuple(index)].sum())


def _conditional(report: ConsistencyReport, event: tuple, condition: tuple, tol: Tolerance) -> float:
    """P(event | condition) from the report of a consistent family."""
    ev = _resolve_outcome(report.family, event[0], event[1], tol)
    cond = _resolve_outcome(report.family, condition[0], condition[1], tol)
    cond_mass = _event_mass(report, cond)
    if cond_mass <= tol.cons:
        raise ZeroProbabilityConditionError(
            f"condition {cond[1]!r} at {condition[0]!r} has probability {cond_mass:.3e}"
        )
    return _event_mass(report, ev, cond) / cond_mass


def conditional_probability(
    report: ConsistencyReport, query: FactQuery, tol: Tolerance = DEFAULT_TOL
) -> float:
    """P(event | condition) within the single family ``report`` judged.

    Refuses inconsistent families outright: probabilities drawn from them do
    not obey the classical rules, so no number is returned.
    """
    if not report.consistent:
        raise InconsistentFamilyError(
            "single-framework rule: family is inconsistent (max off-diagonal "
            f"overlap {report.max_offdiag:.3e}), so it supports no probabilistic reasoning"
        )
    return _conditional(report, query.event, query.condition, tol)


def check_total_probability_law(
    report: ConsistencyReport,
    event: tuple,
    partition_time: str,
    tol: Tolerance = DEFAULT_TOL,
) -> TotalProbabilityCheck:
    """P(event) vs the partition sum over outcomes at another time, inside
    the family ``report`` judged.

    Inside one consistent family the law is an identity; ``holds`` allows
    10 * tol.cons of numerical slack.  Partition outcomes with probability
    at or below tol.cons are skipped (conditioning on them is undefined).
    """
    if not report.consistent:
        raise InconsistentFamilyError("total-probability law is only meaningful inside a consistent family")
    family = report.family
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
        rhs += _conditional(report, (ev_time, ev_label), (partition_time, label), tol) * mass
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
    later = family.slot_decompositions[lat]
    # built plain: conjugated projectors are not exact, and replace() would keep an exact type
    pulled = ProjectiveDecomposition(later.dim, transport.conj().T @ later.projectors @ transport, later.labels)
    return decompositions_compatible(family.slot_decompositions[rec], pulled, tol).compatible
