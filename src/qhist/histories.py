"""Time-graded history families, chain kets, probabilities, and the consistency check.

A family fixes an initial ket at t0, a unitary evolution per time interval,
and a projective decomposition per later time slot; ``framework`` builds and
validates the decompositions, and this module assembles families from
validated ones.  Each history picks one outcome label per slot; its chain
ket is the initial ket pushed through the alternating evolve/project string,
and its probability is the squared norm of that chain ket.  The family
supports classical probabilistic reasoning exactly when all pairs of chain
kets are orthogonal.

``consistency_check`` propagates every chain ket at once, level by level: a
batch of prefix kets is evolved, split by the slot's projectors, and rid of
the kets that are exactly zero, all found by one ``np.nonzero``.  Each
distinct (decomposition, unitary) pair of objects forms its step, the
projectors times the unitary, once per call, and the levels that repeat it
reuse it.  A zero ket is orthogonal to every ket, so the report keeps only
the surviving kets (a consistent family has at most ``dim`` of them); their
Gram matrix is formed once, by ``_overlaps``, read for the probabilities and
the largest overlap, and not kept.  ``chain_ket`` composes one history's
operator string on its own and is kept as an independent per-history path.

A history is a tuple of outcome labels, one per slot; a family's histories are
those tuples in ``itertools.product`` order, and a solved family is its
``ConsistencyReport``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadTimesError,
    DimMismatchError,
    HistoryLimitError,
    NotAPartitionError,
    NotUnitaryError,
    UnknownHistoryError,
    UnknownLabelError,
)
from .framework import DISJUNCTION_JOINER, ProjectiveDecomposition, _coerce_slot, make_decomposition
from .linalg import DEFAULT_TOL, Tolerance, as_ket, as_matrix, identity, is_unitary

__all__ = [
    "DEFAULT_MAX_HISTORIES",
    "TimeGrid",
    "Evolution",
    "HistoryFamily",
    "ConsistencyReport",
    "build_family",
    "chain_ket",
    "consistency_check",
    "coarse_grain",
]

DEFAULT_MAX_HISTORIES = 10**6


@dataclass(frozen=True)
class TimeGrid:
    """Ordered labels t0..tn; slots (measurement times) are t1..tn."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise BadTimesError("a grid needs at least two times")
        if len(set(self.labels)) != len(self.labels):
            raise BadTimesError(f"duplicate time labels in {self.labels}")

    @property
    def slot_times(self) -> tuple[str, ...]:
        return self.labels[1:]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BadTimesError(f"time {label!r} not on grid {self.labels}") from None

    def slot_index(self, label: str) -> int:
        idx = self.index(label)
        if idx == 0:
            raise BadTimesError(f"time {label!r} is the initial time; it has no slot")
        return idx - 1


@dataclass(frozen=True, eq=False)
class Evolution:
    """Unitary carrying states from ``start`` to ``end``."""

    start: str
    end: str
    unitary: np.ndarray


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    dim: int
    grid: TimeGrid
    initial_ket: np.ndarray
    evolutions: tuple[Evolution, ...]
    slot_decompositions: tuple[ProjectiveDecomposition, ...]

    @property
    def n_slots(self) -> int:
        return len(self.slot_decompositions)

    @property
    def shape(self) -> tuple[int, ...]:
        """The number of outcomes of each slot: the shape of the outcome tensor."""
        return tuple(len(d) for d in self.slot_decompositions)

    @property
    def n_histories(self) -> int:
        """The product of the slot sizes, counted without enumerating."""
        return math.prod(self.shape)

    @cached_property
    def histories(self) -> tuple[tuple[str, ...], ...]:
        """Every history's label tuple in ``itertools.product`` order of the
        slot labels, enumerated on first access."""
        return tuple(itertools.product(*(d.labels for d in self.slot_decompositions)))

    def slot_indices(self, labels: Iterable[str]) -> tuple[int, ...]:
        """The position of each of a history's labels in its slot; a history
        outside the family raises ``UnknownHistoryError``."""
        key = tuple(labels)
        decomps = self.slot_decompositions
        if len(key) != len(decomps) or any(lab not in d.labels for lab, d in zip(key, decomps)):
            raise UnknownHistoryError(f"history {key!r} is not in this family")
        return tuple(d.labels.index(lab) for d, lab in zip(decomps, key))


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """The surviving chain kets of a family, and the verdict on their overlaps.

    ``family`` is the family judged.  ``kets`` holds, as read-only rows, the
    chain kets that are not exactly zero, and ``support`` their flat history
    indices (ascending, in ``HistoryFamily.histories`` order); every other
    chain ket is zero.  ``max_offdiag`` is the largest overlap magnitude
    between two of them.

    ``probabilities`` (read-only) is the diagonal of the kets' Gram matrix,
    zero off ``support``, and is populated even when the family is
    inconsistent (flagged by ``consistent=False``); in that case the numbers
    are diagnostic only and not additive.
    """

    family: HistoryFamily
    kets: np.ndarray
    support: np.ndarray
    max_offdiag: float
    threshold: float
    consistent: bool
    probabilities: np.ndarray

    def probability(self, labels: Iterable[str]) -> float:
        return float(self.probabilities.reshape(self.family.shape)[self.family.slot_indices(labels)])


def build_family(
    initial_ket,
    grid,
    evolutions: Sequence,
    slots: Sequence,
    tol: Tolerance = DEFAULT_TOL,
    max_histories: int = DEFAULT_MAX_HISTORIES,
) -> HistoryFamily:
    """Assemble a history family from an initial ket, evolutions, and slots.

    Each input is validated here, once, in this order: the ket's norm, the
    number of evolutions and each one's unitarity (``_checked_evolution``;
    None, the identity, is exact), the number of slots, then each slot,
    which ``framework._coerce_slot`` turns into a decomposition: an
    observable into its eigenprojectors, a projector or a list of labelled
    ones padded with the complement projector labelled "rest" (a list's
    labels may not contain "∧" or "∨", which the engine's product and
    coarse-grained labels join with); a ``ProjectiveDecomposition`` was validated
    when it was made and is used as it is.  The number of histories, the
    product of the slot sizes, is capped at ``max_histories``; the histories
    are enumerated only when ``HistoryFamily.histories`` is read.
    """
    if not isinstance(grid, TimeGrid):
        grid = TimeGrid(tuple(grid))
    psi0 = as_ket(initial_ket, tol).copy()
    psi0.setflags(write=False)
    if len(evolutions) != len(grid.labels) - 1:
        raise DimMismatchError(f"expected {len(grid.labels) - 1} evolutions, got {len(evolutions)}")
    evs = tuple(_checked_evolution(grid, k, ev, psi0.shape[0], tol) for k, ev in enumerate(evolutions))
    if len(slots) != len(evs):
        raise DimMismatchError(f"expected {len(evs)} slots, got {len(slots)}")
    decomps = [_coerce_slot(slot, psi0.shape[0], tol) for slot in slots]
    return _assemble_family(psi0, grid, evs, decomps, max_histories)


def _checked_evolution(grid: TimeGrid, k: int, ev, dim: int, tol: Tolerance) -> Evolution:
    """The read-only unitary of interval ``k`` of ``grid``, a copy made for
    this call.  None is the identity, which is exact and so is not checked;
    any other evolution must be a unitary matrix of dim ``dim``."""
    u = identity(dim) if ev is None else as_matrix(ev.unitary if isinstance(ev, Evolution) else ev)
    if u.shape != (dim, dim):
        raise DimMismatchError(f"evolution {k} has shape {u.shape}, expected ({dim}, {dim})")
    if ev is not None and not is_unitary(u, tol):
        raise NotUnitaryError(f"evolution {k} ({grid.labels[k]} -> {grid.labels[k + 1]}) is not unitary")
    u = u.copy()
    u.setflags(write=False)
    return Evolution(start=grid.labels[k], end=grid.labels[k + 1], unitary=u)


def _assemble_family(
    psi0: np.ndarray,
    grid: TimeGrid,
    evolutions: tuple[Evolution, ...],
    decomps: Sequence[ProjectiveDecomposition],
    max_histories: int,
) -> HistoryFamily:
    """The family over an already checked read-only ket and evolutions and
    validated decompositions, one per evolution, once its history count is
    checked."""
    if math.prod(len(d) for d in decomps) > max_histories:
        raise HistoryLimitError(f"family would enumerate > {max_histories} histories")
    return HistoryFamily(
        dim=psi0.shape[0],
        grid=grid,
        initial_ket=psi0,
        evolutions=evolutions,
        slot_decompositions=tuple(decomps),
    )


def chain_ket(family: HistoryFamily, history: Iterable[str]) -> np.ndarray:
    """Pn T(tn,tn-1) ... P1 T(t1,t0) |psi0> as an unnormalized vector.

    ``history`` is a tuple of outcome labels, one per slot.  The initial
    condition enters as the ket itself (its projector is implicit), so the
    operator string is composed slot by slot and applied once.
    """
    op = None
    for ev, decomp, k in zip(family.evolutions, family.slot_decompositions, family.slot_indices(history)):
        step = decomp.projectors[k] @ ev.unitary
        op = step if op is None else step @ op
    return op @ family.initial_ket


def _surviving_kets(family: HistoryFamily) -> tuple[np.ndarray, np.ndarray]:
    """The chain kets that are not exactly zero, as rows, and their flat
    history indices (ascending, in ``itertools.product`` order).

    One level per slot: the prefix kets are evolved and split by the slot's
    projectors in one matrix product, shaped (prefix, outcome, dim), and one
    ``np.nonzero`` keeps those not exactly zero (every extension of a zero
    prefix is zero); a kept ket's index, its prefix's times the slot's size
    plus its outcome, stays ascending.  A level's step, the projectors times
    the unitary, is formed once per distinct pair of those objects in a call.
    """
    dim = family.dim
    kets = family.initial_ket[None, :]
    index = np.zeros(1, dtype=np.int64)
    # the family holds every decomposition and unitary for the whole call, so an id is a key
    steps: dict[tuple[int, int], np.ndarray] = {}
    for ev, decomp in zip(family.evolutions, family.slot_decompositions):
        n = len(decomp)
        key = (id(decomp), id(ev.unitary))
        step = steps.get(key)
        if step is None:
            step = steps[key] = (decomp.projectors @ ev.unitary).reshape(n * dim, dim).T
        kets = (kets @ step).reshape(-1, n, dim)
        parents, outcomes = np.nonzero(kets.any(axis=2))
        kets, index = kets[parents, outcomes], index[parents] * n + outcomes
    return kets, index


def _overlaps(kets: np.ndarray) -> tuple[np.ndarray, float]:
    """The diagonal of the Gram matrix of ``kets`` (rows) and its largest
    off-diagonal magnitude; the only place an m x m array is formed.

    The diagonal is read from the same product as the overlaps: a row-norm
    formula rounds differently in the last bit on most rows.
    """
    gram = np.conjugate(kets) @ kets.T
    off = np.abs(gram)
    np.fill_diagonal(off, 0.0)
    return gram.diagonal().real, float(np.max(off, initial=0.0))


def consistency_check(family: HistoryFamily, tol: Tolerance = DEFAULT_TOL) -> ConsistencyReport:
    """The nonzero chain kets, the probabilities, and the verdict.

    The family is consistent when the largest off-diagonal magnitude of the
    kets' Gram matrix does not exceed ``tol.cons`` relative to the largest
    diagonal entry (floored at 1), i.e. the criterion is the full complex
    overlap, not just its real part.  Overlaps with an exactly-zero chain ket
    are exactly zero, so the maximum is taken over the surviving kets only.
    """
    kets, support = _surviving_kets(family)
    diag, max_offdiag = _overlaps(kets)
    probabilities = np.zeros(family.n_histories)
    probabilities[support] = diag
    threshold = tol.cons * max(1.0, float(np.max(diag, initial=0.0)))
    for array in (kets, support, probabilities):
        array.setflags(write=False)
    return ConsistencyReport(
        family=family,
        kets=kets,
        support=support,
        max_offdiag=max_offdiag,
        threshold=threshold,
        consistent=max_offdiag <= threshold,
        probabilities=probabilities,
    )


def coarse_grain(
    family: HistoryFamily,
    merges: Mapping[str, Sequence[Iterable[str]]],
    tol: Tolerance = DEFAULT_TOL,
) -> HistoryFamily:
    """Merge outcome labels at named slots by summing their projectors.

    ``merges`` maps a slot time to label groups that must partition that
    slot's labels exactly; slots not mentioned are untouched.  Merged groups
    get the label "a∨b" in the slot's original label order.  The merged
    family has at most ``family``'s histories, its cap.
    """
    new_slots: list[ProjectiveDecomposition] = []
    for time, decomp in zip(family.grid.slot_times, family.slot_decompositions):
        if time not in merges:
            new_slots.append(decomp)
            continue
        groups = [tuple(g) for g in merges[time]]
        flat = [lab for g in groups for lab in g]
        if sorted(flat) != sorted(decomp.labels):
            raise NotAPartitionError(
                f"groups {groups} do not partition slot {time!r} labels {decomp.labels}"
            )
        projectors, labels = [], []
        for group in sorted(sorted(decomp.index(lab) for lab in g) for g in groups):
            projectors.append(decomp.projectors[group].sum(axis=0))
            labels.append(DISJUNCTION_JOINER.join(decomp.labels[k] for k in group))
        new_slots.append(make_decomposition(projectors, labels, tol))
    unknown = set(merges) - set(family.grid.slot_times)
    if unknown:
        raise UnknownLabelError(f"merge times {sorted(unknown)} are not slot times")
    return _assemble_family(family.initial_ket, family.grid, family.evolutions, new_slots, family.n_histories)
