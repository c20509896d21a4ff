"""Quantum sample spaces: projective decompositions of the identity.

A decomposition is the quantum analogue of a partition of phase space:
mutually orthogonal projectors summing to the identity.  Conjunction of two
projectors is defined only when they commute; otherwise it is the
distinguished value ``UNDEFINED`` (a result of the three-valued logic, not a
failure).  Two decompositions are compatible when all cross pairs commute;
only compatible decompositions may be refined into a common one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateLabelError,
    IncompatibleFrameworksError,
    NotAProjectorError,
    NotCompleteError,
    NotOrthogonalError,
    UnknownLabelError,
)
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, commutator, identity, is_projector, max_abs, max_abs_each

__all__ = [
    "UNDEFINED",
    "ProjectiveDecomposition",
    "CommutationCheck",
    "make_decomposition",
    "conjunction",
    "negation",
    "decompositions_compatible",
    "refine",
]

CONJUNCTION_JOINER = "∧"  # "∧", used for refined labels
DISJUNCTION_JOINER = "∨"  # "∨", used for coarse-grained labels


class _UndefinedType:
    """Singleton marker for a meaningless conjunction of non-commuting projectors."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Undefined"


UNDEFINED = _UndefinedType()


@dataclass(frozen=True, eq=False)
class ProjectiveDecomposition:
    """Validated sample space: orthogonal projectors summing to the identity,
    stacked as one read-only complex array of shape (n, dim, dim)."""

    dim: int
    projectors: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.projectors)

    def items(self):
        return zip(self.labels, self.projectors)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"label {label!r} not in {self.labels}") from None

    def projector_for(self, label: str) -> np.ndarray:
        return self.projectors[self.index(label)]


def _stacked(projectors, dim: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """The elements converted to complex: the leading ones of shape (d, d) as
    one (k, d, d) stack (a copy), and the rest as matrices, the first of which
    has another shape.  ``d`` is ``dim``, or the first element's row count.

    The usual input costs one conversion and one finiteness check.  Only when
    either fails does each element go through ``as_matrix``, which raises the
    error of the first element that is not a finite matrix.
    """
    try:
        stack = np.array(projectors, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # elements of different shapes, or not numbers
        stack = np.empty(0)
    square = stack.ndim == 3 and 0 < stack.shape[1] == stack.shape[2] and dim in (None, stack.shape[1])
    if square and np.isfinite(stack).all():
        return stack, []
    mats = [as_matrix(p) for p in projectors]
    if dim is None:
        dim = mats[0].shape[0] if mats else 0
    k = next((i for i, p in enumerate(mats) if p.shape != (dim, dim)), len(mats))
    head = np.stack(mats[:k]) if k else np.empty((0, dim, dim), dtype=complex)
    return head, mats[k:]


def make_decomposition(
    projectors: Sequence | np.ndarray,
    labels: Sequence[str],
    tol: Tolerance = DEFAULT_TOL,
    dim: int | None = None,
) -> ProjectiveDecomposition:
    """Validate and assemble a projective decomposition.

    ``projectors`` is a sequence of matrices or an (n, d, d) stack; either is
    converted to one complex stack, a copy, so later writes to the input do
    not reach the decomposition.  Each element must be ``dim`` x ``dim``, or
    the first element's shape when ``dim`` is None.  The checks run in this
    order, each over the whole stack at once: the labels, each element's
    shape and projector property (Hermitian within ``tol.herm``, idempotent
    within ``tol.proj``), the orthogonality of each pair, then completeness.
    The error raised is the first the per-element order meets: ``as_matrix``'s
    error for the first element that is not a finite matrix,
    ``DuplicateLabelError``, ``DimMismatchError`` or ``NotAProjectorError``
    naming the first offending index, ``NotOrthogonalError`` naming the first
    pair, or ``NotCompleteError``.
    """
    stack, misfits = _stacked(projectors, dim)
    n = len(stack) + len(misfits)
    if not n:
        raise NotCompleteError("a decomposition needs at least one projector")
    dim = stack.shape[1]
    if len(labels) != n:
        raise DuplicateLabelError(f"{n} projectors but {len(labels)} labels")
    seen: dict[str, int] = {}
    for i, label in enumerate(labels):
        if label in seen:
            raise DuplicateLabelError(f"label {label!r} at index {i} repeats index {seen[label]}")
        seen[label] = i
    # the elements before the first of another shape are checked as one stack
    hermitian = max_abs_each(stack - stack.conj().swapaxes(-2, -1)) <= tol.herm
    idempotent = max_abs_each(stack @ stack - stack) <= tol.proj
    bad = np.flatnonzero(~(hermitian & idempotent))
    if bad.size:
        i = int(bad[0])
        raise NotAProjectorError(f"element {i} ({labels[i]!r}) is not a projector")
    if misfits:
        i = len(stack)
        raise DimMismatchError(f"projector {i} has shape {misfits[0].shape}, expected ({dim}, {dim})")
    for i in range(len(stack) - 1):
        residuals = max_abs_each(stack[i] @ stack[i + 1 :])
        bad = np.flatnonzero(residuals > tol.proj)
        if bad.size:
            j = i + 1 + bad[0]
            raise NotOrthogonalError(
                f"projectors {i} and {j} are not orthogonal (|PiPj|_max = {residuals[bad[0]]:.3e})"
            )
    completeness = max_abs(stack.sum(axis=0) - identity(dim))
    if completeness > tol.proj:
        raise NotCompleteError(f"projectors do not sum to identity (residual {completeness:.3e})")
    stack.setflags(write=False)
    return ProjectiveDecomposition(dim=dim, projectors=stack, labels=tuple(labels))


def _require_projector(p, tol: Tolerance) -> np.ndarray:
    p = as_matrix(p)
    if p.shape[0] != p.shape[1] or not is_projector(p, tol):
        raise NotAProjectorError("operand is not a projector")
    return p


def conjunction(p, q, tol: Tolerance = DEFAULT_TOL):
    """PQ when the projectors commute, else ``UNDEFINED``.

    The undefined case is a first-class outcome: the proposition "P and Q"
    is neither true nor false for non-commuting projectors.
    """
    p = _require_projector(p, tol)
    q = _require_projector(q, tol)
    if p.shape != q.shape:
        raise DimMismatchError(f"conjunction needs equal dims, got {p.shape} and {q.shape}")
    if max_abs(commutator(p, q)) > tol.comm:
        return UNDEFINED
    return p @ q


def negation(p, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The complement projector 1 - P."""
    p = _require_projector(p, tol)
    return identity(p.shape[0]) - p


class CommutationCheck(NamedTuple):
    compatible: bool
    max_residual: float
    worst_pair: tuple[str, str] | None


def decompositions_compatible(
    a: ProjectiveDecomposition, b: ProjectiveDecomposition, tol: Tolerance = DEFAULT_TOL
) -> CommutationCheck:
    """Check that every projector of one decomposition commutes with every
    projector of the other; reports how incompatible they are, not just whether.
    ``worst_pair`` is the first pair (``a``'s labels, then ``b``'s) with the
    largest residual, and None when every residual is exactly 0.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"decompositions have dims {a.dim} and {b.dim}")
    qs = b.projectors
    residuals = np.array([max_abs_each(p @ qs - qs @ p) for p in a.projectors])
    i, j = np.unravel_index(np.argmax(residuals), residuals.shape)
    worst = float(residuals[i, j])
    worst_pair = (a.labels[i], b.labels[j]) if worst > 0.0 else None
    return CommutationCheck(worst <= tol.comm, worst, worst_pair)


def refine(
    a: ProjectiveDecomposition, b: ProjectiveDecomposition, tol: Tolerance = DEFAULT_TOL
) -> ProjectiveDecomposition:
    """Common refinement of two compatible decompositions.

    Keeps every nonzero product PQ, labelled "p∧q"; zero products span empty
    subspaces and are dropped.
    """
    check = decompositions_compatible(a, b, tol)
    if not check.compatible:
        raise IncompatibleFrameworksError(
            f"cannot refine: projectors {check.worst_pair} do not commute "
            f"(residual {check.max_residual:.3e})"
        )
    return _products(a, b, tol)


def _products(
    a: ProjectiveDecomposition, b: ProjectiveDecomposition, tol: Tolerance
) -> ProjectiveDecomposition:
    """The nonzero products PQ, labelled "p∧q", validated as a decomposition."""
    rows, labels = [], []
    for la, p in a.items():
        row = p @ b.projectors
        keep = np.flatnonzero(max_abs_each(row) > tol.proj)
        rows.append(row[keep])
        labels.extend(f"{la}{CONJUNCTION_JOINER}{b.labels[j]}" for j in keep)
    return make_decomposition(np.concatenate(rows), labels, tol)
