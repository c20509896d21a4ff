"""Shared construction helpers for the test suite."""

from __future__ import annotations

import json
import pathlib

import numpy as np

from qhist.errors import (
    DimMismatchError,
    DuplicateLabelError,
    NotAProjectorError,
    NotCompleteError,
    NotOrthogonalError,
)
from qhist.framework import CommutationCheck, ProjectiveDecomposition, make_decomposition
from qhist.histories import ConsistencyReport, HistoryFamily, build_family, chain_ket
from qhist.linalg import (
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Tolerance,
    commutator,
    identity,
    is_projector,
    max_abs,
)
from qhist.scenario import (
    Measurement,
    MatrixObservable,
    NamedObservable,
    ObserverSpec,
    ProjectorListObservable,
    Scenario,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

GALLERY_NAMES = (
    "repeated_x",
    "zxz_inconsistent",
    "stable_facts",
    "relative_facts",
    "measurement_fam1",
    "measurement_fam2",
)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

KET_UP = np.array([1, 0], dtype=complex)
KET_DOWN = np.array([0, 1], dtype=complex)


# exit code, stdout and stderr of the gallery command lines, recorded by
# scripts/cli_golden.py golden
GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent / "golden" / "gallery_cli.json").read_text())


def gallery(name: str) -> pathlib.Path:
    return SCENARIOS / f"{name}.json"


def _measures(name: str, by_time: dict[str, str]) -> dict:
    return {"name": name, "measurements": [{"time": t, "observable": o} for t, o in by_time.items()]}


# One qubit from up_z.  A and B commute slot by slot, but their product
# family measures z, x, z, which is inconsistent (max off-diagonal 0.25):
# condition 2 fails.  A and C fail condition 1 at t1; B and C are stable.
CONDITION2 = {
    "format": 1,
    "name": "condition2",
    "systems": [2],
    "initial_state": "up_z",
    "times": ["t0", "t1", "t2", "t3"],
    "observers": [
        _measures("A", {"t1": "sigma_z", "t3": "sigma_z"}),
        _measures("B", {"t2": "sigma_x"}),
        _measures("C", {"t1": "sigma_x"}),
    ],
}


def proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def embed(op: np.ndarray, factor: int, dims: tuple[int, ...]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims, start=1):
        out = np.kron(out, op if k == factor else identity(d))
    return out


def pauli_decomposition(axis: str, factor: int = 1, dims: tuple[int, ...] = (2,)) -> ProjectiveDecomposition:
    op = PAULI[axis]
    plus = (identity(2) + op) / 2.0
    minus = (identity(2) - op) / 2.0
    return make_decomposition(
        [embed(plus, factor, dims), embed(minus, factor, dims)],
        [f"+{axis}", f"-{axis}"],
    )


def full_gram(report: ConsistencyReport) -> np.ndarray:
    """The N x N Gram matrix of every chain ket of the report's family, in
    ``HistoryFamily.histories`` order: the surviving kets' overlaps on
    ``report.support``, zero elsewhere."""
    n = report.family.n_histories
    gram = np.zeros((n, n), dtype=complex)
    gram[np.ix_(report.support, report.support)] = np.conjugate(report.kets) @ report.kets.T
    return gram


def chain_ket_probability(family: HistoryFamily, labels) -> float:
    """The squared norm of one history's chain ket, composed on its own by ``chain_ket``."""
    ket = chain_ket(family, labels)
    return float(np.vdot(ket, ket).real)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_decomposition(
    rng: np.random.Generator, d: int, n_blocks: int | None = None
) -> ProjectiveDecomposition:
    """Projectors onto random orthogonal subspaces covering the whole space."""
    if n_blocks is None:
        n_blocks = int(rng.integers(1, d + 1))
    return _block_decomposition(rng, random_unitary(rng, d), min(n_blocks, d))


def coordinate_decomposition(rng: np.random.Generator, d: int) -> ProjectiveDecomposition:
    """Random grouping of the coordinate basis: diagonal 0/1 projectors, so
    that products of different blocks are exactly zero."""
    permutation = np.eye(d, dtype=complex)[:, rng.permutation(d)]
    return _block_decomposition(rng, permutation, int(rng.integers(1, d + 1)))


def _block_decomposition(
    rng: np.random.Generator, u: np.ndarray, n_blocks: int
) -> ProjectiveDecomposition:
    d = u.shape[0]
    cuts = sorted(rng.choice(np.arange(1, d), size=n_blocks - 1, replace=False)) if n_blocks > 1 else []
    bounds = [0, *cuts, d]
    projectors = []
    labels = []
    for k in range(n_blocks):
        block = u[:, bounds[k] : bounds[k + 1]]
        projectors.append(block @ block.conj().T)
        labels.append(f"b{k}")
    return make_decomposition(projectors, labels)


# Reference loops: one projector pair (or one eigenvalue) at a time, as the
# package computed these before they became array operations.
# tests/test_framework.py holds the row products to them, tests/test_linalg.py
# the eigenvalue clustering.

def reference_compatible(
    a: ProjectiveDecomposition, b: ProjectiveDecomposition, tol: Tolerance = DEFAULT_TOL
) -> CommutationCheck:
    """``decompositions_compatible``: the first pair with the largest residual."""
    worst = 0.0
    worst_pair = None
    for la, p in a.items():
        for lb, q in b.items():
            residual = max_abs(commutator(p, q))
            if residual > worst:
                worst, worst_pair = residual, (la, lb)
    return CommutationCheck(worst <= tol.comm, worst, worst_pair)


def reference_products(
    a: ProjectiveDecomposition, b: ProjectiveDecomposition, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[np.ndarray], list[str]]:
    """The nonzero products PQ and their labels "p∧q", in row-major order."""
    projectors, labels = [], []
    for la, p in a.items():
        for lb, q in b.items():
            product = p @ q
            if max_abs(product) > tol.proj:
                projectors.append(product)
                labels.append(f"{la}∧{lb}")
    return projectors, labels


def reference_information_preserved(
    family: HistoryFamily, record_time: str, later_time: str, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Every later projector, pulled back, commutes with every record projector."""
    rec = family.grid.slot_index(record_time)
    lat = family.grid.slot_index(later_time)
    transport = None
    for ev in family.evolutions[rec + 1 : lat + 1]:
        transport = ev.unitary if transport is None else ev.unitary @ transport
    for q in family.slot_decompositions[lat].projectors:
        pulled = transport.conj().T @ q @ transport
        for p in family.slot_decompositions[rec].projectors:
            if max_abs(commutator(pulled, p)) > tol.comm:
                return False
    return True


def reference_decomposition_error(
    projectors: list[np.ndarray], labels: list[str], tol: Tolerance = DEFAULT_TOL
) -> tuple[type, tuple[int, ...]] | None:
    """The error ``make_decomposition`` raises and the indices it names, or
    None for a valid decomposition: each element in turn, a non-finite entry
    (a ``ValueError`` that names no index) or a shape other than the first
    element's rows squared, then labels, then each element's projector
    check, then each pair's orthogonality, then completeness."""
    dim = projectors[0].shape[0]
    for i, p in enumerate(projectors):
        if not np.isfinite(p).all():
            return ValueError, ()
        if p.shape != (dim, dim):
            return DimMismatchError, (i,)
    seen: dict[str, int] = {}
    for i, label in enumerate(labels):
        if label in seen:
            return DuplicateLabelError, (i, seen[label])
        seen[label] = i
    for i, p in enumerate(projectors):
        if not is_projector(p, tol):
            return NotAProjectorError, (i,)
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            if max_abs(projectors[i] @ projectors[j]) > tol.proj:
                return NotOrthogonalError, (i, j)
    if max_abs(sum(projectors) - identity(dim)) > tol.proj:
        return NotCompleteError, ()
    return None


def reference_eigenprojectors(h: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[tuple[float, np.ndarray]]:
    """``hermitian_eigenprojectors`` one eigenvalue at a time: a cluster ends
    where the gap to the next eigenvalue exceeds ``tol.herm``."""
    eigenvalues, vectors = np.linalg.eigh(h)
    out = []
    start = 0
    for k in range(1, len(eigenvalues) + 1):
        if k == len(eigenvalues) or eigenvalues[k] - eigenvalues[k - 1] > tol.herm:
            block = vectors[:, start:k]
            out.append((float(np.mean(eigenvalues[start:k])), block @ block.conj().T))
            start = k
    return out


def random_family(
    rng: np.random.Generator, d: int, n_slots: int, kind: str = "generic"
) -> HistoryFamily:
    """kind: 'generic' (usually inconsistent for n_slots > 1), 'repeated'
    (same observable transported through the evolutions: always consistent),
    'single' (one slot: always consistent), 'basis' (mostly
    coordinate-basis slots, each evolution the identity or random: repeated
    bases across identity steps make chain kets vanish exactly), or 'eigen'
    ('basis' whose first evolution is the identity, first slot a coordinate
    decomposition and initial ket in one of its blocks: every other outcome
    at the first slot has an exactly zero chain ket)."""
    if kind == "single":
        n_slots = 1
    grid = ["t0"] + [f"t{k + 1}" for k in range(n_slots)]
    evolutions = [random_unitary(rng, d) for _ in range(n_slots)]
    ket = random_state(rng, d)
    if kind == "repeated":
        base = random_decomposition(rng, d)
        slots = []
        transport = identity(d)
        for k in range(n_slots):
            transport = evolutions[k] @ transport
            slots.append(
                make_decomposition(
                    [transport @ p @ transport.conj().T for p in base.projectors],
                    base.labels,
                )
            )
    elif kind in ("basis", "eigen"):
        evolutions = [identity(d) if rng.random() < 0.6 else u for u in evolutions]
        slots = [
            coordinate_decomposition(rng, d) if rng.random() < 0.75 else random_decomposition(rng, d)
            for _ in range(n_slots)
        ]
        if kind == "eigen":
            evolutions[0] = identity(d)
            slots[0] = coordinate_decomposition(rng, d)
            ket = slots[0].projectors[rng.integers(len(slots[0]))] @ ket
            ket = ket / np.linalg.norm(ket)
    else:
        slots = [random_decomposition(rng, d) for _ in range(n_slots)]
    return build_family(ket, grid, evolutions, slots)


def measurement_model(n: int, rng: np.random.Generator | None = None):
    """System dim n plus an (n+1)-level detector whose unitary copies the
    outcome into the pointer states.  Returns (family, amplitudes).

    With ``rng`` given, the measured basis, the detector completion, and the
    initial amplitudes are all randomized (amplitudes kept away from zero).
    """
    ddet = n + 1
    dtot = n * ddet
    if rng is None:
        sys_basis = [np.eye(n, dtype=complex)[:, i] for i in range(n)]
        amplitudes = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
        detector_units = []
        for i in range(n):
            v = np.eye(ddet, dtype=complex)
            v[[0, i + 1]] = v[[i + 1, 0]]
            detector_units.append(v)
    else:
        basis_u = random_unitary(rng, n)
        sys_basis = [basis_u[:, i] for i in range(n)]
        amplitudes = rng.uniform(0.2, 1.0, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
        amplitudes = amplitudes / np.linalg.norm(amplitudes)
        detector_units = []
        for i in range(n):
            # unitary completion of the column map M0 -> Mi
            z = rng.normal(size=(ddet, ddet)) + 1j * rng.normal(size=(ddet, ddet))
            z[:, 0] = np.eye(ddet, dtype=complex)[:, i + 1]
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            detector_units.append(q)
    det_basis = [np.eye(ddet, dtype=complex)[:, i] for i in range(ddet)]
    u = np.zeros((dtot, dtot), dtype=complex)
    for i in range(n):
        u += np.kron(proj(sys_basis[i]), detector_units[i])
    phi0 = sum(a * s for a, s in zip(amplitudes, sys_basis))
    ket0 = np.kron(phi0, det_basis[0])
    t1_slot = [(f"s{i + 1}", np.kron(proj(sys_basis[i]), proj(det_basis[0]))) for i in range(n)]
    t2_slot = [
        (f"M{i + 1}", np.kron(proj(sys_basis[i]), proj(detector_units[i] @ det_basis[0])))
        for i in range(n)
    ]
    family = build_family(ket0, ["t0", "t1", "t2"], [identity(dtot), u], [t1_slot, t2_slot])
    return family, amplitudes


def random_scenario(rng: np.random.Generator) -> Scenario:
    """Structurally valid scenario with dims <= 8 and <= 3 slots."""
    n_factors = int(rng.integers(1, 4))
    dims = []
    total = 1
    for _ in range(n_factors):
        d = int(rng.choice([2, 2, 2, 3, 4]))
        if total * d > 8:
            break
        dims.append(d)
        total *= d
    if not dims:
        dims, total = [2], 2
    dims = tuple(dims)

    if all(d == 2 for d in dims) and rng.random() < 0.6:
        presets = tuple(
            str(rng.choice(["up_z", "down_z", "plus_x", "minus_x", "plus_y", "minus_y"]))
            for _ in dims
        )
        initial = presets
    else:
        initial = random_state(rng, total)

    n_slots = int(rng.integers(1, 4))
    times = tuple(f"t{k}" for k in range(n_slots + 1))
    evolutions = tuple(
        "identity" if rng.random() < 0.5 else random_unitary(rng, total) for _ in range(n_slots)
    )

    def random_observable():
        roll = rng.random()
        qubit_factors = [k + 1 for k, d in enumerate(dims) if d == 2]
        if roll < 0.4 and qubit_factors:
            axis = str(rng.choice(["x", "y", "z"]))
            factor = int(rng.choice(qubit_factors))
            suffix = "" if (len(dims) == 1 and dims[0] == 2 and rng.random() < 0.5) else f"@{factor}"
            return NamedObservable(name=f"sigma_{axis}{suffix}")
        if roll < 0.55:
            return NamedObservable(name="identity")
        if roll < 0.8:
            h = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
            return MatrixObservable(matrix=h + h.conj().T)
        decomp = random_decomposition(rng, total)
        keep = max(1, len(decomp) - 1)  # often incomplete, exercising padding
        return ProjectorListObservable(
            labels=decomp.labels[:keep], matrices=decomp.projectors[:keep]
        )

    observers = []
    for i in range(int(rng.integers(1, 3))):
        slot_times = [t for t in times[1:] if rng.random() < 0.8]
        measurements = tuple(Measurement(time=t, observable=random_observable()) for t in slot_times)
        observers.append(ObserverSpec(name=f"O{i + 1}", measurements=measurements))

    overrides = {}
    if rng.random() < 0.3:
        overrides["cons"] = float(rng.choice([1e-8, 1e-9, 1e-10]))
    return Scenario(
        name=f"generated_{int(rng.integers(10 ** 6))}",
        subsystem_dims=dims,
        initial_state=initial,
        times=times,
        evolutions=evolutions,
        observers=tuple(observers),
        tolerance_overrides=overrides,
    )
