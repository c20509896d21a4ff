"""Time-graded history families, chain kets, probabilities, and the consistency check.

A family fixes an initial ket at t0, a unitary evolution per time interval,
and a projective decomposition per later time slot.  Each history picks one
outcome label per slot; its chain ket is the initial ket pushed through the
alternating evolve/project string, and its probability is the squared norm of
that chain ket.  The family supports classical probabilistic reasoning exactly
when all pairs of chain kets are orthogonal.

``consistency_check`` propagates every chain ket at once, level by level: a
batch of prefix kets is evolved, split by the slot's projectors, and rid of
the rows that are exactly zero.  A zero ket adds nothing to the Gram matrix,
so only the Gram matrix of the surviving kets is computed; a consistent
family has at most ``dim`` of them.  ``chain_ket`` composes one history's
operator string on its own and is kept as an independent per-history path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadDecompositionError,
    BadTimesError,
    DimMismatchError,
    HistoryLimitError,
    NotAPartitionError,
    NotUnitaryError,
    UnknownHistoryError,
    UnknownLabelError,
)
from .framework import DISJUNCTION_JOINER, ProjectiveDecomposition, make_decomposition
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_ket,
    as_matrix,
    hermitian_eigenprojectors,
    identity,
    is_hermitian,
    is_projector,
    is_unitary,
    max_abs,
)

__all__ = [
    "DEFAULT_MAX_HISTORIES",
    "REST_LABEL",
    "TimeGrid",
    "Evolution",
    "History",
    "HistoryFamily",
    "ConsistencyReport",
    "build_family",
    "chain_ket",
    "history_probability",
    "consistency_check",
    "coarse_grain",
]

DEFAULT_MAX_HISTORIES = 10**6
REST_LABEL = "rest"


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
class History:
    """One outcome label (and projector) per slot time t1..tn."""

    labels: tuple[str, ...]
    projectors: tuple[np.ndarray, ...]

    @property
    def label(self) -> str:
        return ",".join(self.labels)


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
    def n_histories(self) -> int:
        """The product of the slot sizes, counted without enumerating."""
        return math.prod(len(d) for d in self.slot_decompositions)

    @cached_property
    def histories(self) -> tuple[History, ...]:
        """Every history in ``itertools.product`` order of the slot labels,
        enumerated on first access."""
        return tuple(
            self.history(combo)
            for combo in itertools.product(*(d.labels for d in self.slot_decompositions))
        )

    def history(self, labels: Iterable[str]) -> History:
        key = tuple(labels)
        decomps = self.slot_decompositions
        if len(key) != len(decomps) or any(lab not in d.labels for lab, d in zip(key, decomps)):
            raise UnknownHistoryError(f"history {key!r} is not in this family")
        return History(labels=key, projectors=tuple(d.projector_for(lab) for d, lab in zip(decomps, key)))


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Gram-matrix evidence for the pairwise orthogonality of chain kets.

    ``support`` holds the flat indices (in ``labels`` order) of the chain
    kets that are not exactly zero, and ``support_gram`` their Gram matrix;
    every other entry of the full Gram matrix is zero.  ``gram`` is that full
    N x N matrix, built only when it is read.

    ``probabilities`` is the Gram diagonal and is populated even when the
    family is inconsistent (flagged by ``consistent=False``); in that case the
    numbers are diagnostic only and not additive.
    """

    slot_labels: tuple[tuple[str, ...], ...]
    support: np.ndarray
    support_gram: np.ndarray
    max_offdiag: float
    threshold: float
    consistent: bool
    probabilities: np.ndarray

    @cached_property
    def labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(itertools.product(*self.slot_labels))

    @cached_property
    def gram(self) -> np.ndarray:
        n = len(self.probabilities)
        gram = np.zeros((n, n), dtype=complex)
        gram[np.ix_(self.support, self.support)] = self.support_gram
        gram.setflags(write=False)
        return gram

    def probability(self, labels: Iterable[str]) -> float:
        key = tuple(labels)
        if len(key) != len(self.slot_labels):
            raise UnknownHistoryError(f"history {key!r} is not in this report")
        flat = 0
        for lab, slot in zip(key, self.slot_labels):
            if lab not in slot:
                raise UnknownHistoryError(f"history {key!r} is not in this report")
            flat = flat * len(slot) + slot.index(lab)
        return float(self.probabilities[flat])


def _eigen_decomposition(m: np.ndarray, tol: Tolerance) -> ProjectiveDecomposition:
    """Eigenprojectors of a Hermitian observable, labelled ``ev{k}={value}``
    in ascending order of eigenvalue."""
    pairs = hermitian_eigenprojectors(m, tol)
    labels = [f"ev{k}={value:.6g}" for k, (value, _) in enumerate(pairs)]
    return make_decomposition([p for _, p in pairs], labels, tol)


def _coerce_slot(slot, dim: int, tol: Tolerance) -> ProjectiveDecomposition:
    """Accept a decomposition, a Hermitian observable, a single (labelled)
    projector, or a list of labelled projectors; pad to completeness."""
    if isinstance(slot, ProjectiveDecomposition):
        if slot.dim != dim:
            raise DimMismatchError(f"slot decomposition has dim {slot.dim}, expected {dim}")
        return slot
    if isinstance(slot, tuple) and len(slot) == 2 and isinstance(slot[0], str):
        return _pad_to_decomposition([slot], dim, tol)
    if isinstance(slot, (list,)):
        return _pad_to_decomposition(list(slot), dim, tol)
    m = as_matrix(slot)
    if m.shape != (dim, dim):
        raise DimMismatchError(f"slot operator has shape {m.shape}, expected ({dim}, {dim})")
    if is_projector(m, tol):
        return _pad_to_decomposition([("p", m)], dim, tol)
    if is_hermitian(m, tol):
        return _eigen_decomposition(m, tol)
    raise BadDecompositionError("slot operator is neither a projector nor Hermitian")


def _pad_to_decomposition(
    labelled: list[tuple[str, np.ndarray]], dim: int, tol: Tolerance
) -> ProjectiveDecomposition:
    labels = [lab for lab, _ in labelled]
    mats = [as_matrix(m) for _, m in labelled]
    rest = identity(dim) - sum(mats)
    if max_abs(rest) > tol.proj:
        if REST_LABEL in labels:
            raise BadDecompositionError(
                f"label {REST_LABEL!r} is reserved for the complement padding"
            )
        labels.append(REST_LABEL)
        mats.append(rest)
    try:
        return make_decomposition(mats, labels, tol)
    except Exception as exc:
        raise BadDecompositionError(f"slot is not a valid decomposition: {exc}") from exc


def build_family(
    initial_ket,
    grid,
    evolutions: Sequence,
    slots: Sequence,
    tol: Tolerance = DEFAULT_TOL,
    max_histories: int = DEFAULT_MAX_HISTORIES,
) -> HistoryFamily:
    """Assemble a history family from an initial ket, evolutions, and slots.

    Each input is validated here, once: the ket's norm, each evolution's
    unitarity (``_checked_evolutions``), then each slot (``_assemble_family``).
    Observables become eigenprojector decompositions and incomplete slots are
    padded with the complement projector labelled "rest"; a
    ``ProjectiveDecomposition`` was validated when it was made and is used as
    it is.  The number of histories, the product of the slot sizes, is capped
    at ``max_histories``; the histories are enumerated only when
    ``HistoryFamily.histories`` is read.
    """
    if not isinstance(grid, TimeGrid):
        grid = TimeGrid(tuple(grid))
    psi0 = as_ket(initial_ket, tol).copy()
    psi0.setflags(write=False)
    evs = _checked_evolutions(grid, evolutions, psi0.shape[0], tol)
    return _assemble_family(psi0, grid, evs, slots, tol, max_histories)


def _checked_evolutions(
    grid: TimeGrid, evolutions: Sequence, dim: int, tol: Tolerance
) -> tuple[Evolution, ...]:
    """One read-only unitary per interval of ``grid``, each checked once."""
    n_intervals = len(grid.labels) - 1
    if len(evolutions) != n_intervals:
        raise DimMismatchError(f"expected {n_intervals} evolutions, got {len(evolutions)}")
    evs = []
    for k, ev in enumerate(evolutions):
        u = identity(dim) if ev is None else as_matrix(ev.unitary if isinstance(ev, Evolution) else ev)
        if u.shape != (dim, dim):
            raise DimMismatchError(f"evolution {k} has shape {u.shape}, expected ({dim}, {dim})")
        if not is_unitary(u, tol):
            raise NotUnitaryError(f"evolution {k} ({grid.labels[k]} -> {grid.labels[k + 1]}) is not unitary")
        u = u.copy()
        u.setflags(write=False)
        evs.append(Evolution(start=grid.labels[k], end=grid.labels[k + 1], unitary=u))
    return tuple(evs)


def _assemble_family(
    psi0: np.ndarray,
    grid: TimeGrid,
    evolutions: tuple[Evolution, ...],
    slots: Sequence,
    tol: Tolerance,
    max_histories: int,
) -> HistoryFamily:
    """The family over an already checked read-only ket and evolutions:
    coerce the slots, then check the history count."""
    if len(slots) != len(evolutions):
        raise DimMismatchError(f"expected {len(evolutions)} slots, got {len(slots)}")
    decomps = tuple(_coerce_slot(slot, psi0.shape[0], tol) for slot in slots)
    if math.prod(len(d) for d in decomps) > max_histories:
        raise HistoryLimitError(f"family would enumerate > {max_histories} histories")
    return HistoryFamily(
        dim=psi0.shape[0],
        grid=grid,
        initial_ket=psi0,
        evolutions=evolutions,
        slot_decompositions=decomps,
    )


def _resolve_history(family: HistoryFamily, history) -> History:
    if isinstance(history, History):
        return family.history(history.labels)
    return family.history(history)


def chain_ket(family: HistoryFamily, history) -> np.ndarray:
    """Pn T(tn,tn-1) ... P1 T(t1,t0) |psi0> as an unnormalized vector.

    The initial condition enters as the ket itself (its projector is implicit),
    so the operator string is composed slot by slot and applied once.
    """
    h = _resolve_history(family, history)
    op = None
    for ev, projector in zip(family.evolutions, h.projectors):
        step = projector @ ev.unitary
        op = step if op is None else step @ op
    return op @ family.initial_ket


def history_probability(family: HistoryFamily, history) -> float:
    """Squared norm of the chain ket."""
    ket = chain_ket(family, history)
    return float(np.vdot(ket, ket).real)


def _surviving_kets(family: HistoryFamily) -> tuple[np.ndarray, np.ndarray]:
    """The chain kets that are not exactly zero, as rows, and their flat
    history indices (ascending, in ``itertools.product`` order).

    One level per slot: every prefix ket is evolved and projected by each of
    the slot's projectors in one matrix product, and the rows that come out
    exactly zero are dropped, since every extension of a zero prefix is zero.
    """
    dim = family.dim
    kets = family.initial_ket[None, :]
    index = np.zeros(1, dtype=np.int64)
    for ev, decomp in zip(family.evolutions, family.slot_decompositions):
        n = len(decomp)
        steps = np.stack([p @ ev.unitary for p in decomp.projectors]).reshape(n * dim, dim)
        kets = (kets @ steps.T).reshape(-1, dim)
        index = (index[:, None] * n + np.arange(n)).reshape(-1)
        live = kets.any(axis=1)
        kets, index = kets[live], index[live]
    return kets, index


def consistency_check(family: HistoryFamily, tol: Tolerance = DEFAULT_TOL) -> ConsistencyReport:
    """Gram matrix of the nonzero chain kets, the probabilities, and the verdict.

    The family is consistent when the largest off-diagonal magnitude does not
    exceed ``tol.cons`` relative to the largest diagonal entry (floored at 1),
    i.e. the criterion is the full complex overlap, not just its real part.
    Overlaps with an exactly-zero chain ket are exactly zero, so the maximum
    is taken over the surviving kets only.
    """
    kets, support = _surviving_kets(family)
    gram = np.conjugate(kets) @ kets.T
    diag = gram.diagonal().real
    probabilities = np.zeros(family.n_histories)
    probabilities[support] = diag
    if len(support) > 1:
        off = np.abs(gram)
        np.fill_diagonal(off, 0.0)
        max_offdiag = float(np.max(off))
    else:
        max_offdiag = 0.0
    scale = max(1.0, float(np.max(diag, initial=0.0)))
    threshold = tol.cons * scale
    gram.setflags(write=False)
    support.setflags(write=False)
    return ConsistencyReport(
        slot_labels=tuple(d.labels for d in family.slot_decompositions),
        support=support,
        support_gram=gram,
        max_offdiag=max_offdiag,
        threshold=threshold,
        consistent=max_offdiag <= threshold,
        probabilities=probabilities,
    )


def coarse_grain(
    family: HistoryFamily,
    merges: Mapping[str, Sequence[Iterable[str]]],
    tol: Tolerance = DEFAULT_TOL,
    max_histories: int = DEFAULT_MAX_HISTORIES,
) -> HistoryFamily:
    """Merge outcome labels at named slots by summing their projectors.

    ``merges`` maps a slot time to label groups that must partition that
    slot's labels exactly; slots not mentioned are untouched.  Merged groups
    get the label "a∨b" in the slot's original label order.
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
        order = {lab: i for i, lab in enumerate(decomp.labels)}
        projectors = []
        labels = []
        for group in sorted(groups, key=lambda g: min(order[lab] for lab in g)):
            members = sorted(group, key=lambda lab: order[lab])
            projectors.append(sum(decomp.projector_for(lab) for lab in members))
            labels.append(DISJUNCTION_JOINER.join(members))
        new_slots.append(make_decomposition(projectors, labels, tol))
    unknown = set(merges) - set(family.grid.slot_times)
    if unknown:
        raise UnknownLabelError(f"merge times {sorted(unknown)} are not slot times")
    return _assemble_family(
        family.initial_ket, family.grid, family.evolutions, new_slots, tol, max_histories
    )
