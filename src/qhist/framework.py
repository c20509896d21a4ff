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
from functools import reduce
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
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, commutator, identity, is_projector, max_abs

__all__ = [
    "UNDEFINED",
    "ProjectiveDecomposition",
    "CommutationCheck",
    "make_decomposition",
    "conjunction",
    "negation",
    "decompositions_compatible",
    "refine",
    "refine_all",
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
    """Validated sample space: orthogonal projectors summing to the identity."""

    dim: int
    projectors: tuple[np.ndarray, ...]
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


def make_decomposition(
    projectors: Sequence, labels: Sequence[str], tol: Tolerance = DEFAULT_TOL
) -> ProjectiveDecomposition:
    """Validate and assemble a projective decomposition.

    Raises ``NotAProjectorError`` / ``NotOrthogonalError`` / ``NotCompleteError``
    / ``DuplicateLabelError``, each naming the offending index.
    """
    mats = [as_matrix(p) for p in projectors]
    if not mats:
        raise NotCompleteError("a decomposition needs at least one projector")
    dim = mats[0].shape[0]
    if len(labels) != len(mats):
        raise DuplicateLabelError(f"{len(mats)} projectors but {len(labels)} labels")
    seen: dict[str, int] = {}
    for i, label in enumerate(labels):
        if label in seen:
            raise DuplicateLabelError(f"label {label!r} at index {i} repeats index {seen[label]}")
        seen[label] = i
    for i, p in enumerate(mats):
        if p.shape != (dim, dim):
            raise DimMismatchError(f"projector {i} has shape {p.shape}, expected ({dim}, {dim})")
        if not is_projector(p, tol):
            raise NotAProjectorError(f"element {i} ({labels[i]!r}) is not a projector")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            residual = max_abs(mats[i] @ mats[j])
            if residual > tol.proj:
                raise NotOrthogonalError(
                    f"projectors {i} and {j} are not orthogonal (|PiPj|_max = {residual:.3e})"
                )
    completeness = max_abs(sum(mats) - identity(dim))
    if completeness > tol.proj:
        raise NotCompleteError(f"projectors do not sum to identity (residual {completeness:.3e})")
    frozen = []
    for p in mats:
        q = p.copy()
        q.setflags(write=False)
        frozen.append(q)
    return ProjectiveDecomposition(dim=dim, projectors=tuple(frozen), labels=tuple(labels))


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
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"decompositions have dims {a.dim} and {b.dim}")
    worst = 0.0
    worst_pair: tuple[str, str] | None = None
    for la, p in a.items():
        for lb, q in b.items():
            residual = max_abs(commutator(p, q))
            if residual > worst:
                worst = residual
                worst_pair = (la, lb)
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
    projectors = []
    labels = []
    for la, p in a.items():
        for lb, q in b.items():
            product = p @ q
            if max_abs(product) > tol.proj:
                projectors.append(product)
                labels.append(f"{la}{CONJUNCTION_JOINER}{lb}")
    return make_decomposition(projectors, labels, tol)


def refine_all(
    decompositions: Sequence[ProjectiveDecomposition], tol: Tolerance = DEFAULT_TOL
) -> ProjectiveDecomposition:
    """Left fold of pairwise refinement over one or more decompositions."""
    if not decompositions:
        raise IncompatibleFrameworksError("nothing to refine")
    return reduce(lambda acc, d: refine(acc, d, tol), decompositions)
