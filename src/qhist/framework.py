"""Quantum sample spaces: projective decompositions of the identity.

A decomposition is the quantum analogue of a partition of phase space:
mutually orthogonal projectors summing to the identity.  This is the one
module that validates decompositions, each where it is built: an
observable's eigenprojectors, labelled projectors padded with their
complement "rest", and the products of two decompositions are stacked and
validated by ``_validated`` (the labels, each element's projector property,
orthogonality, completeness); a caller's matrices are first converted by
``_stacked``, which checks each element's entries and shape.  Each raises
the first fault where its check finds it.
Two kinds are exact by construction and built without validation, as an
``_ExactDecomposition``: ``scenario.resolve``'s named slots (the identity
and each Pauli's (1 ± sigma)/2 on a qubit factor), and the products of two
exact decompositions that commute exactly (``_pair_products``).

Conjunction of two projectors is defined only when they commute; otherwise
it is the distinguished value ``UNDEFINED`` (a result of the three-valued
logic, not a failure).  Two decompositions are compatible when all cross
pairs commute; only compatible decompositions may be refined into a common
one.  Compatibility reads one table of products PQ per pair of
decompositions (``_pair_products``); ``_refinement`` builds the common
refinement from it, for ``refine`` and the two-condition test alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BadDecompositionError,
    DimMismatchError,
    DuplicateLabelError,
    IncompatibleFrameworksError,
    NotAProjectorError,
    NotCompleteError,
    NotOrthogonalError,
    QHistError,
    UnknownLabelError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    commutator,
    hermitian_eigenprojectors,
    identity,
    is_hermitian,
    is_projector,
    max_abs,
    max_abs_each,
)

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
REST_LABEL = "rest"  # the complement that pads an incomplete projector list


def _joiner_in(label: str) -> str | None:
    """The first joiner that ``label`` contains, or None.  A given label may
    contain neither: products ("p∧q") and merged outcomes ("a∨b") are
    labelled with them, and two products whose labels join to the same text
    would be taken for a repeated label."""
    return next((j for j in (CONJUNCTION_JOINER, DISJUNCTION_JOINER) if j in label), None)


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


@dataclass(frozen=True, eq=False)
class _ExactDecomposition(ProjectiveDecomposition):
    """A decomposition that is exact by construction and was not validated:
    a named slot (``scenario._measurement_slot``) or the products of an
    exact table (``_pair_products``).  ``dataclasses.replace`` keeps this
    type, so a decomposition made from one with other projectors is built
    as a plain ``ProjectiveDecomposition``."""


def _stacked(projectors, dim: int | None = None) -> np.ndarray:
    """The elements as one finite complex (n, d, d) stack, a copy, where
    ``d`` is ``dim``, or the first element's row count.  Raises the first
    element's fault in element order: ``as_matrix``'s error for an element
    that is not a finite matrix, or ``DimMismatchError`` for one of another
    shape.  The usual input costs one conversion and one finiteness check;
    only when it gives no such stack is each element converted in turn."""
    try:
        stack = np.array(projectors, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # elements of different shapes, or not numbers
        stack = np.empty(0)
    if stack.ndim == 3 and 0 < stack.shape[1] == stack.shape[2] and dim in (None, stack.shape[1]):
        if not np.isfinite(stack).all():
            raise ValueError("matrix entries must be finite")
        return stack
    mats = []
    for k, p in enumerate(projectors):
        m = as_matrix(p)
        dim = m.shape[0] if dim is None else dim
        if m.shape != (dim, dim):
            raise DimMismatchError(f"projector {k} has shape {m.shape}, expected ({dim}, {dim})")
        mats.append(m)
    return np.stack(mats) if mats else np.empty((0, dim or 0, dim or 0), dtype=complex)


def _check_labels(n: int, labels: Sequence[str]) -> None:
    """Raise unless ``labels`` names ``n`` elements, at least one, without a repeat."""
    if not n:
        raise NotCompleteError("a decomposition needs at least one projector")
    if len(labels) != n:
        raise DuplicateLabelError(f"{n} projectors but {len(labels)} labels")
    seen: dict[str, int] = {}
    for i, label in enumerate(labels):
        if label in seen:
            raise DuplicateLabelError(f"label {label!r} at index {i} repeats index {seen[label]}")
        seen[label] = i


def _block_rows(n: int, m: int) -> int:
    """Rows per block of an n x m table of matrix products: a block holds at
    most n + m products, as many matrices as its two operand stacks."""
    return max(1, (n + m) // m)


def _check_orthogonal(stack: np.ndarray, tol: Tolerance) -> None:
    """Raise ``NotOrthogonalError`` naming the first pair i < j, in row-major
    order, of an (n, d, d) stack whose product exceeds ``tol.proj``, with its
    residual.

    Element i times a block of its elements after i is one broadcast
    product of views: no operand is copied, and a block holds at most half
    the stack's elements, so the products and their moduli together stay
    within the stack's size.  Each block is searched as it is formed.
    """
    n = len(stack)
    width = max(1, n // 2)
    for i in range(n - 1):
        for j in range(i + 1, n, width):
            residuals = max_abs_each(stack[i : i + 1] @ stack[j : j + width])
            if residuals.max() > tol.proj:
                k = int(np.argmax(residuals > tol.proj))
                raise NotOrthogonalError(
                    f"projectors {i} and {j + k} are not orthogonal (|PiPj|_max = {residuals[k]:.3e})")


def _validated(stack: np.ndarray, labels: Sequence[str], tol: Tolerance) -> ProjectiveDecomposition:
    """The decomposition of a finite (n, dim, dim) ``stack`` under
    ``labels``.  Raises the first fault, the checks running in
    ``make_decomposition``'s order after conversion: the labels, each
    element's projector property, orthogonality, then completeness.  The
    stack is the caller's to give up: the decomposition holds it, made
    read-only."""
    n, dim, _ = stack.shape
    _check_labels(n, labels)
    # stack - stack^dagger, formed in one contiguous copy of the transpose:
    # a strided conjugate-transpose operand costs more than the subtraction
    skew = stack.swapaxes(-2, -1).copy()
    np.conjugate(skew, out=skew)
    hermitian = max_abs_each(np.subtract(stack, skew, out=skew)) <= tol.herm
    idempotent = max_abs_each(stack @ stack - stack) <= tol.proj
    bad = np.flatnonzero(~(hermitian & idempotent)).tolist()
    if bad:
        raise NotAProjectorError(f"element {bad[0]} ({labels[bad[0]]!r}) is not a projector")
    _check_orthogonal(stack, tol)
    residual = max_abs(stack.sum(axis=0) - identity(dim))
    if residual > tol.proj:
        raise NotCompleteError(f"projectors do not sum to identity (residual {residual:.3e})")
    stack.setflags(write=False)
    return ProjectiveDecomposition(dim, stack, tuple(labels))


def make_decomposition(
    projectors: Sequence | np.ndarray, labels: Sequence[str], tol: Tolerance = DEFAULT_TOL
) -> ProjectiveDecomposition:
    """Validate and assemble a projective decomposition.

    ``projectors`` is a sequence of matrices or an (n, d, d) stack; either is
    converted to one complex stack, a copy, so later writes to the input do
    not reach the decomposition.  The conversion (``_stacked``) checks each
    element in turn: a finite square matrix, as large as the first element.
    The checks of ``_validated`` then each run over the whole stack at once:
    the labels, each element's projector property (Hermitian within
    ``tol.herm``, idempotent within ``tol.proj``), the orthogonality of each
    pair, then completeness.  So the error raised is, in this order:
    ``as_matrix``'s error or ``DimMismatchError`` for the first element that
    is not such a matrix, ``DuplicateLabelError``, ``NotAProjectorError``
    naming the first offending index, ``NotOrthogonalError`` naming the
    first pair, or ``NotCompleteError``.  Labels are taken as given, joiners
    included: an engine-style product label such as "a∧b" is legitimate
    here (a test's reference refinement is built that way); only labels
    read from a scenario or a ``build_family`` slot list are refused one.
    """
    return _validated(_stacked(projectors), labels, tol)


def _eigen_decomposition(m: np.ndarray, tol: Tolerance) -> ProjectiveDecomposition:
    """The validated eigenprojectors of a Hermitian observable, labelled
    ``ev{k}={value}`` in ascending order of eigenvalue."""
    pairs = hermitian_eigenprojectors(m, tol)
    labels = [f"ev{k}={value:.6g}" for k, (value, _) in enumerate(pairs)]
    return _validated(np.array([p for _, p in pairs], dtype=complex), labels, tol)


def _padded_decomposition(
    labels: Sequence[str], projectors, dim: int, tol: Tolerance
) -> ProjectiveDecomposition:
    """Labelled projectors (a sequence of matrices or an (n, dim, dim)
    stack), converted and stacked once (``_stacked``), padded with the
    complement labelled "rest" when they do not sum to the identity, and
    validated.  A fault of the conversion or the validation is raised as a
    ``BadDecompositionError`` caused by it; a non-finite entry stays the
    ``ValueError`` it is.  An empty list is not padded, so that validation
    refuses it with ``NotCompleteError``.
    """
    labels = list(labels)
    try:
        stack = _stacked(projectors, dim)
        rest = identity(dim) - stack.sum(axis=0)
        if len(stack) and max_abs(rest) > tol.proj:
            if REST_LABEL in labels:
                raise BadDecompositionError(f"label {REST_LABEL!r} is reserved for the complement padding")
            labels.append(REST_LABEL)
            stack = np.concatenate((stack, rest[None]))
        return _validated(stack, labels, tol)
    except BadDecompositionError:
        raise
    except QHistError as exc:
        raise BadDecompositionError(f"slot is not a valid decomposition: {exc}") from exc


def _coerce_slot(slot, dim: int, tol: Tolerance) -> ProjectiveDecomposition:
    """A ``build_family`` slot as a validated decomposition of dim ``dim``: a
    decomposition as it is, a Hermitian observable's eigenprojectors, or a
    single projector or a list of ``(label, projector)`` pairs (one labelled
    projector is a list of one) padded to completeness by
    ``_padded_decomposition``.
    A list element that is not a pair (a tuple or list of two) whose label
    is a ``str``, or whose label contains a joiner (``_joiner_in``), raises
    ``BadDecompositionError`` naming its index."""
    if isinstance(slot, ProjectiveDecomposition):
        if slot.dim != dim:
            raise DimMismatchError(f"slot decomposition has dim {slot.dim}, expected {dim}")
        return slot
    if isinstance(slot, list):
        for i, pair in enumerate(slot):
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and isinstance(pair[0], str)):
                raise BadDecompositionError(f"slot element {i} is not a (str label, projector) pair")
            joiner = _joiner_in(pair[0])
            if joiner is not None:
                raise BadDecompositionError(f"slot element {i}: label {pair[0]!r} contains the joiner {joiner!r}")
        return _padded_decomposition([lab for lab, _ in slot], [m for _, m in slot], dim, tol)
    m = as_matrix(slot)
    if m.shape != (dim, dim):
        raise DimMismatchError(f"slot operator has shape {m.shape}, expected ({dim}, {dim})")
    if is_projector(m, tol):
        return _padded_decomposition(["p"], m[None], dim, tol)
    if is_hermitian(m, tol):
        return _eigen_decomposition(m, tol)
    raise BadDecompositionError("slot operator is neither a projector nor Hermitian")


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


class _ProductTable(NamedTuple):
    """A pair's commutation check and products PQ, for ``_refinement``."""

    check: CommutationCheck
    stack: np.ndarray  # the products kept, in row-major order, not yet validated
    keep: np.ndarray  # the (len(a), len(b)) mask of the products kept
    exact: bool  # whether the products form a decomposition exactly


def _pair_products(a: ProjectiveDecomposition, b: ProjectiveDecomposition, tol: Tolerance) -> _ProductTable:
    """The table of products PQ of two decompositions, each formed once:
    ``decompositions_compatible``'s check, the products of modulus above
    ``tol.proj``, the mask of those kept, and whether the table is exact.

    The products are formed in blocks of rows (``_block_rows``).  Each
    block's residuals max|PQ - QP| multiply QP afresh rather than take it as
    (PQ)†, which equals QP only for exactly Hermitian operands.

    The table is exact when both decompositions are ``_ExactDecomposition``s,
    every residual is exactly 0.0 and every product dropped is exactly zero;
    ``_refinement`` then builds its products without validating them.
    That is sound: an exact decomposition's projectors are tensor products
    of one per-factor projector, 1 or a Pauli's (1 ± sigma)/2, for each
    factor.  A nonzero product of two such commutes only when each factor's
    pair commutes, and is then one again.  So every entry is a multiple of
    2^-q, for q qubit factors, of modulus at most 1, and each sum of
    products that this table or validation computes needs at most
    2q + log2(dim) bits, 18 at dim 64: the floating-point arithmetic is
    exact.  In exact arithmetic, the products of two commuting
    decompositions are orthogonal projectors that sum to the identity, the
    dropped ones are zero, and their labels "p∧q" are distinct, since every
    label of one exact decomposition holds the same number of joiners.
    Validation would thus compute every residual as exactly 0 and pass at
    every tolerance, 0 included.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"decompositions have dims {a.dim} and {b.dim}")
    p, q = a.projectors, b.projectors
    step = _block_rows(len(p), len(q))
    residuals, sizes, kept = np.empty((len(p), len(q))), np.empty((len(p), len(q))), []
    keep = np.empty((len(p), len(q)), dtype=bool)
    for r in range(0, len(p), step):
        block = p[r : r + step, None] @ q
        residuals[r : r + step] = max_abs_each(block - q @ p[r : r + step, None])
        sizes[r : r + step] = max_abs_each(block)
        keep[r : r + step] = sizes[r : r + step] > tol.proj
        kept.append(block[keep[r : r + step]])
    i, j = np.unravel_index(np.argmax(residuals), residuals.shape)
    worst = float(residuals[i, j])
    worst_pair = (a.labels[i], b.labels[j]) if worst > 0.0 else None
    stack = kept[0] if len(kept) == 1 else np.concatenate(kept)
    exact = (
        isinstance(a, _ExactDecomposition)
        and isinstance(b, _ExactDecomposition)
        and worst == 0.0
        and not sizes[~keep].any()
    )
    return _ProductTable(CommutationCheck(worst <= tol.comm, worst, worst_pair), stack, keep, exact)


def _refinement(a, b, table: _ProductTable, tol: Tolerance) -> ProjectiveDecomposition:
    """The products kept in ``table``, ``_pair_products(a, b, tol)`` of a pair
    that commutes, labelled "p∧q" in its order: an ``_ExactDecomposition``
    over its read-only stack when the table is exact, else validated.
    ``refine`` and ``check_compatibility`` build every refinement with this."""
    labels = tuple(f"{a.labels[i]}{CONJUNCTION_JOINER}{b.labels[j]}" for i, j in zip(*np.nonzero(table.keep)))
    if not table.exact:
        return _validated(table.stack, labels, tol)
    table.stack.setflags(write=False)
    return _ExactDecomposition(table.stack.shape[1], table.stack, labels)


def decompositions_compatible(
    a: ProjectiveDecomposition, b: ProjectiveDecomposition, tol: Tolerance = DEFAULT_TOL
) -> CommutationCheck:
    """Check that every projector of one decomposition commutes with every
    projector of the other; reports how incompatible they are, not just whether.
    ``worst_pair`` is the first pair (``a``'s labels, then ``b``'s) with the
    largest residual, and None when every residual is exactly 0.
    """
    return _pair_products(a, b, tol).check


def refine(
    a: ProjectiveDecomposition, b: ProjectiveDecomposition, tol: Tolerance = DEFAULT_TOL
) -> ProjectiveDecomposition:
    """Common refinement of two compatible decompositions.

    Keeps every nonzero product PQ, labelled "p∧q"; zero products span empty
    subspaces and are dropped (``_refinement``).
    """
    table = _pair_products(a, b, tol)
    check = table.check
    if not check.compatible:
        raise IncompatibleFrameworksError(
            f"cannot refine: projectors {check.worst_pair} do not commute "
            f"(residual {check.max_residual:.3e})"
        )
    return _refinement(a, b, table, tol)
