"""Dense complex linear algebra: the numerical substrate for operators and states.

Everything is a plain ``numpy`` array of dtype complex; the helpers here add
validation (finiteness, shape) and the tolerance-aware predicates the rest of
the package builds on.  All tolerance checks use the max-abs-entry norm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimMismatchError, NotHermitianError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "identity",
    "as_matrix",
    "as_ket",
    "max_abs",
    "max_abs_each",
    "tensor_product",
    "dagger",
    "is_hermitian",
    "is_projector",
    "is_unitary",
    "commutator",
    "hermitian_eigenprojectors",
]

@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds (max-abs-entry norm), each in [0, 1e-3]."""

    norm: float = 1e-9
    herm: float = 1e-9
    proj: float = 1e-9
    comm: float = 1e-9
    cons: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not self.admits(value):
                raise ValueError(f"tolerance '{f.name}' must lie in [0, 1e-3], got {value!r}")
            object.__setattr__(self, f.name, float(value) + 0.0)  # a float, and -0.0 as 0.0

    @staticmethod
    def admits(value: float) -> bool:
        """Whether ``value`` is a threshold's: it lies in [0, 1e-3].  The one
        statement of the range, which a scenario's overrides are held to too."""
        return 0.0 <= value <= 1e-3

    @classmethod
    def uniform(cls, eps: float) -> "Tolerance":
        return cls(**{f.name: eps for f in fields(cls)})


DEFAULT_TOL = Tolerance()
_EPS = float(np.finfo(float).eps)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


@functools.lru_cache(maxsize=16)
def identity(dim: int) -> np.ndarray:
    """The complex ``dim`` x ``dim`` identity, read-only and shared: one
    array per dimension, the 16 most recently asked for kept.  Callers only
    read it; one that needs to write takes a copy."""
    return _frozen(np.eye(dim, dtype=complex))


def as_matrix(value) -> np.ndarray:
    """Coerce to a complex 2-d array, requiring finite entries."""
    m = np.asarray(value, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimMismatchError(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_ket(value, tol: Tolerance | None = None) -> np.ndarray:
    """Coerce to a complex vector; with ``tol`` set, require normalization.

    ``<k|k>`` may miss 1 by ``max(tol.norm, d * eps)``: summing ``d`` squares
    rounds by up to about ``d`` machine epsilons, so a tolerance of 0 still
    accepts a ket normalized as well as doubles allow, such as a product of
    ``plus_x`` presets.
    """
    k = np.asarray(value, dtype=complex)
    if k.ndim != 1 or k.shape[0] < 1:
        raise DimMismatchError(f"expected a vector, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("ket amplitudes must be finite")
    if tol is not None:
        norm2 = float(np.vdot(k, k).real)
        if abs(norm2 - 1.0) > max(tol.norm, k.shape[0] * _EPS):
            raise ValueError(f"ket is not normalized: <k|k> = {norm2!r}")
    return k


def max_abs(a: np.ndarray) -> float:
    """Max-abs-entry norm, the norm used by every tolerance check."""
    return float(np.max(np.abs(a)))


def max_abs_each(stack: np.ndarray) -> np.ndarray:
    """``max_abs`` of each matrix of an (n, d, d) stack."""
    return np.abs(stack).max(axis=(-2, -1))


def _require_square(m) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_hermitian(h, tol: Tolerance) -> np.ndarray:
    """``h`` as a finite square complex matrix, Hermitian within ``tol.herm``:
    the input checks of ``hermitian_eigenprojectors``, which run before its
    eigendecomposition, also for a matrix that is only checked."""
    h = _require_square(h)
    if max_abs(h - h.conj().T) > tol.herm:
        raise NotHermitianError(f"matrix is not Hermitian within {tol.herm}")
    return h


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(as_matrix(a), as_matrix(b))


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def is_hermitian(h, tol: Tolerance = DEFAULT_TOL) -> bool:
    h = _require_square(h)
    return max_abs(h - h.conj().T) <= tol.herm


def is_projector(p, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Hermitian within ``tol.herm`` and idempotent within ``tol.proj``."""
    p = _require_square(p)
    if max_abs(p - p.conj().T) > tol.herm:
        return False
    return max_abs(p @ p - p) <= tol.proj


def is_unitary(u, tol: Tolerance = DEFAULT_TOL) -> bool:
    u = _require_square(u)
    return max_abs(u.conj().T @ u - identity(u.shape[0])) <= tol.herm


def commutator(a, b) -> np.ndarray:
    """ab - ba for equal square dimensions."""
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise DimMismatchError(f"commutator needs equal dims, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def hermitian_eigenprojectors(
    h, tol: Tolerance = DEFAULT_TOL
) -> list[tuple[float, np.ndarray]]:
    """Spectral decomposition of a Hermitian matrix into distinct eigenprojectors.

    Ascending neighbours closer than ``tol.herm`` are chained into one cluster
    whose projector is the sum of the clustered spectral projectors (this is
    what makes degenerate observables like the identity come out as one
    projector), and whose value is the mean of its eigenvalues.  The chain
    compares neighbours, not the cluster's first eigenvalue, so a cluster can
    span more than ``tol.herm``: under the default 1e-9, diag(0, 0.9e-9,
    1.8e-9, 1) gives a rank-3 cluster at 9e-10 and a rank-1 cluster at 1.
    Returned ascending by eigenvalue.
    """
    h = _require_hermitian(h, tol)
    eigenvalues, vectors = np.linalg.eigh(h)
    cuts = [0, *(np.flatnonzero(np.diff(eigenvalues) > tol.herm) + 1).tolist(), len(eigenvalues)]
    out: list[tuple[float, np.ndarray]] = []
    for start, stop in zip(cuts, cuts[1:]):
        block = vectors[:, start:stop]
        out.append((float(np.mean(eigenvalues[start:stop])), block @ block.conj().T))
    return out
