"""Dense complex linear algebra: the numerical substrate for operators and states.

Everything is a plain ``numpy`` array of dtype complex; the helpers here add
validation (finiteness, shape) and the tolerance-aware predicates the rest of
the package builds on.  All tolerance checks use the max-abs-entry norm.
"""

from __future__ import annotations

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
            if not 0.0 <= value <= 1e-3:
                raise ValueError(f"tolerance '{f.name}' must lie in [0, 1e-3], got {value!r}")

    @classmethod
    def uniform(cls, eps: float) -> "Tolerance":
        return cls(**{f.name: eps for f in fields(cls)})


DEFAULT_TOL = Tolerance()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def as_matrix(value) -> np.ndarray:
    """Coerce to a complex 2-d array, requiring finite entries."""
    m = np.asarray(value, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimMismatchError(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_ket(value, tol: Tolerance | None = None) -> np.ndarray:
    """Coerce to a complex vector; with ``tol`` set, require normalization."""
    k = np.asarray(value, dtype=complex)
    if k.ndim != 1 or k.shape[0] < 1:
        raise DimMismatchError(f"expected a vector, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("ket amplitudes must be finite")
    if tol is not None and abs(np.vdot(k, k).real - 1.0) > tol.norm:
        raise ValueError(f"ket is not normalized: <k|k> = {np.vdot(k, k).real!r}")
    return k


def max_abs(a: np.ndarray) -> float:
    """Max-abs-entry norm, the norm used by every tolerance check."""
    return float(np.max(np.abs(a)))


def _require_square(m) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


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

    Eigenvalues closer than ``tol.herm`` are merged into one cluster whose
    projector is the sum of the clustered spectral projectors (this is what
    makes degenerate observables like the identity come out as one projector).
    Returned ascending by eigenvalue.
    """
    h = _require_square(h)
    if max_abs(h - h.conj().T) > tol.herm:
        raise NotHermitianError(f"matrix is not Hermitian within {tol.herm}")
    eigenvalues, vectors = np.linalg.eigh(h)
    out: list[tuple[float, np.ndarray]] = []
    start = 0
    for k in range(1, len(eigenvalues) + 1):
        if k == len(eigenvalues) or eigenvalues[k] - eigenvalues[k - 1] > tol.herm:
            block = vectors[:, start:k]
            out.append((float(np.mean(eigenvalues[start:k])), block @ block.conj().T))
            start = k
    return out
