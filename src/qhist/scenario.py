"""Declarative scenario format: parse, validate, serialize, resolve.

A scenario is one JSON document (strict: unknown fields are rejected, since a
silent typo in a physics input produces silently wrong physics).  Complex
numbers are [re, im] pairs, matrices are row-major nested arrays, subsystem
addressing is 1-based ("sigma_z@1" acts on the first factor).  ``resolve``
expands named operators and presets into concrete history families, one
``ObserverRecord`` per observer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .errors import (
    DimMismatchError,
    ScenarioError,
    ScenarioParseError,
    UnknownFieldError,
    UnknownOperatorError,
)
from .framework import ProjectiveDecomposition
from .histories import (
    DEFAULT_MAX_HISTORIES,
    TimeGrid,
    _assemble_family,
    _checked_evolutions,
    _coerce_slot,
    _eigen_decomposition,
)
from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Tolerance,
    as_ket,
    identity,
    is_hermitian,
    is_projector,
    is_unitary,
)
from .stablefacts import ObserverRecord

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_MAX_DIM",
    "Scenario",
    "ObserverSpec",
    "Measurement",
    "NamedObservable",
    "MatrixObservable",
    "ProjectorListObservable",
    "parse_scenario",
    "serialize_scenario",
    "resolve",
    "effective_tolerance",
]

FORMAT_VERSION = 1
DEFAULT_MAX_DIM = 64

TRIVIAL_LABEL = "any"

_QUBIT_PRESETS = {
    "up_z": np.array([1, 0], dtype=complex),
    "down_z": np.array([0, 1], dtype=complex),
    "plus_x": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "minus_x": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "plus_y": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "minus_y": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}

# (matrix, axis letter); eigenvalue +1 gets the "+" label
_PAULI_OPS = {"sigma_x": (SIGMA_X, "x"), "sigma_y": (SIGMA_Y, "y"), "sigma_z": (SIGMA_Z, "z")}


@dataclass(frozen=True, eq=False)
class NamedObservable:
    name: str  # "sigma_x", "identity", optionally with "@k"


@dataclass(frozen=True, eq=False)
class MatrixObservable:
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class ProjectorListObservable:
    labels: tuple[str, ...]
    matrices: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class Measurement:
    time: str
    observable: NamedObservable | MatrixObservable | ProjectorListObservable


@dataclass(frozen=True, eq=False)
class ObserverSpec:
    name: str
    measurements: tuple[Measurement, ...]


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    subsystem_dims: tuple[int, ...]
    initial_state: tuple[str, ...] | np.ndarray  # presets or explicit vector
    times: tuple[str, ...]
    evolutions: tuple[Any, ...]  # "identity" | np.ndarray, one per interval
    observers: tuple[ObserverSpec, ...]
    tolerance_overrides: dict[str, float] = field(default_factory=dict)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.subsystem_dims))

    def to_jsonable(self) -> dict:
        return _scenario_to_jsonable(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self.to_jsonable() == other.to_jsonable()


# ---------------------------------------------------------------------------
# parsing

def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise UnknownFieldError(f"unknown field {key!r}", path=f"{path}.{key}")


def _expect(value, kind, path: str, what: str):
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioError(f"expected {what}", path=path)
    return value


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioError(f"missing required field {key!r}", path=path)
    return obj[key]


def _parse_complex(value, path: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise ScenarioError("expected a complex number as [re, im]", path=path)
    return complex(float(value[0]), float(value[1]))


def _parse_vector(value, path: str) -> np.ndarray:
    value = _expect(value, list, path, "an array of [re, im] pairs")
    if not value:
        raise ScenarioError("vector must be nonempty", path=path)
    return np.array([_parse_complex(x, f"{path}[{i}]") for i, x in enumerate(value)])


def _parse_matrix(value, path: str) -> np.ndarray:
    value = _expect(value, list, path, "a matrix as nested arrays of [re, im] pairs")
    rows = [_parse_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    if not rows:
        raise ScenarioError("matrix must be nonempty", path=path)
    width = rows[0].shape[0]
    for i, row in enumerate(rows):
        if row.shape[0] != width:
            raise ScenarioError(f"row {i} has length {row.shape[0]}, expected {width}", path=path)
    return np.array(rows)


def _parse_observable(value, path: str, dims: tuple[int, ...], total: int, tol: Tolerance):
    if isinstance(value, str):
        _check_operator_name(value, path, dims)
        return NamedObservable(name=value)
    value = _expect(value, dict, path, "an operator name, {'matrix': ...}, or {'projectors': ...}")
    if "matrix" in value:
        _reject_unknown(value, {"matrix"}, path)
        m = _parse_matrix(value["matrix"], f"{path}.matrix")
        if m.shape != (total, total):
            raise DimMismatchError(f"{path}.matrix: shape {m.shape} does not match total dim {total}")
        if not is_hermitian(m, tol):
            raise ScenarioError("observable matrix is not Hermitian", path=f"{path}.matrix")
        return MatrixObservable(matrix=m)
    if "projectors" in value:
        _reject_unknown(value, {"projectors"}, path)
        entries = _expect(value["projectors"], list, f"{path}.projectors", "an array of labelled projectors")
        labels = []
        matrices = []
        for i, entry in enumerate(entries):
            epath = f"{path}.projectors[{i}]"
            entry = _expect(entry, dict, epath, "an object with 'label' and 'matrix'")
            _reject_unknown(entry, {"label", "matrix"}, epath)
            labels.append(_expect(_get(entry, "label", epath), str, f"{epath}.label", "a string"))
            m = _parse_matrix(_get(entry, "matrix", epath), f"{epath}.matrix")
            if m.shape != (total, total):
                raise DimMismatchError(f"{epath}.matrix: shape {m.shape} does not match total dim {total}")
            if not is_projector(m, tol):
                raise ScenarioError("matrix is not a projector", path=f"{epath}.matrix")
            matrices.append(m)
        if not labels:
            raise ScenarioError("projector list must be nonempty", path=f"{path}.projectors")
        return ProjectorListObservable(labels=tuple(labels), matrices=tuple(matrices))
    raise UnknownFieldError("observable object needs 'matrix' or 'projectors'", path=path)


def _check_operator_name(name: str, path: str, dims: tuple[int, ...]) -> None:
    base, _, suffix = name.partition("@")
    if base not in _PAULI_OPS and base != "identity":
        raise UnknownOperatorError(f"unknown operator {name!r}", path=path)
    if suffix:
        if not suffix.isdigit() or not 1 <= int(suffix) <= len(dims):
            raise UnknownOperatorError(
                f"subsystem index in {name!r} must be 1..{len(dims)}", path=path
            )
        if base in _PAULI_OPS and dims[int(suffix) - 1] != 2:
            raise DimMismatchError(f"{path}: {name!r} needs a qubit factor, dim is {dims[int(suffix) - 1]}")
    elif base in _PAULI_OPS and (len(dims) != 1 or dims[0] != 2):
        raise DimMismatchError(
            f"{path}: bare {base!r} needs a single-qubit system; use '@k' to pick a factor"
        )


def parse_scenario(data: bytes | str, max_dim: int = DEFAULT_MAX_DIM) -> Scenario:
    """Parse and structurally validate one scenario document."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON: {exc.msg}", path=f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    doc = _expect(doc, dict, "$", "a JSON object")
    _reject_unknown(
        doc,
        {"format", "name", "systems", "initial_state", "times", "evolutions", "observers", "tolerance"},
        "$",
    )
    if _get(doc, "format", "$") != FORMAT_VERSION:
        raise ScenarioError(f"unsupported format {doc['format']!r}, expected {FORMAT_VERSION}", path="$.format")
    name = _expect(_get(doc, "name", "$"), str, "$.name", "a string")

    dims_raw = _expect(_get(doc, "systems", "$"), list, "$.systems", "an array of factor dimensions")
    if not dims_raw:
        raise ScenarioError("systems must be nonempty", path="$.systems")
    dims = []
    for i, d in enumerate(dims_raw):
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ScenarioError("factor dimension must be a positive integer", path=f"$.systems[{i}]")
        dims.append(d)
    dims = tuple(dims)
    total = int(np.prod(dims))
    if total > max_dim:
        raise DimMismatchError(f"$.systems: total dim {total} exceeds cap {max_dim}")

    tolerance: dict[str, float] = {}
    if "tolerance" in doc:
        tobj = _expect(doc["tolerance"], dict, "$.tolerance", "an object")
        _reject_unknown(tobj, {f.name for f in fields(Tolerance)}, "$.tolerance")
        for key, value in tobj.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 <= value <= 1e-3:
                raise ScenarioError("tolerance must be a number in [0, 1e-3]", path=f"$.tolerance.{key}")
            tolerance[key] = float(value)
    tol = effective_tolerance_from_overrides(tolerance)

    state_raw = _get(doc, "initial_state", "$")
    initial_state: tuple[str, ...] | np.ndarray
    if isinstance(state_raw, str):
        initial_state = _check_presets((state_raw,), dims, "$.initial_state")
    elif isinstance(state_raw, list) and all(isinstance(x, str) for x in state_raw):
        initial_state = _check_presets(tuple(state_raw), dims, "$.initial_state")
    elif isinstance(state_raw, dict):
        _reject_unknown(state_raw, {"vector"}, "$.initial_state")
        vec = _parse_vector(_get(state_raw, "vector", "$.initial_state"), "$.initial_state.vector")
        if vec.shape[0] != total:
            raise DimMismatchError(
                f"$.initial_state.vector: length {vec.shape[0]} does not match total dim {total}"
            )
        if abs(np.vdot(vec, vec).real - 1.0) > tol.norm:
            raise ScenarioError(
                f"initial state is not normalized (<v|v> = {np.vdot(vec, vec).real!r})",
                path="$.initial_state.vector",
            )
        initial_state = vec
    else:
        raise ScenarioError(
            "expected a preset name, a list of preset names, or {'vector': ...}",
            path="$.initial_state",
        )

    times_raw = _expect(_get(doc, "times", "$"), list, "$.times", "an array of time labels")
    times = []
    for i, t in enumerate(times_raw):
        times.append(_expect(t, str, f"$.times[{i}]", "a string"))
    if len(times) < 2:
        raise ScenarioError("need at least two times (t0 plus one slot)", path="$.times")
    if len(set(times)) != len(times):
        raise ScenarioError("time labels must be unique", path="$.times")
    times = tuple(times)
    n_intervals = len(times) - 1

    if "evolutions" in doc:
        evs_raw = _expect(doc["evolutions"], list, "$.evolutions", "an array")
        if len(evs_raw) != n_intervals:
            raise ScenarioError(
                f"expected {n_intervals} evolutions (one per interval), got {len(evs_raw)}",
                path="$.evolutions",
            )
        evolutions = []
        for i, ev in enumerate(evs_raw):
            epath = f"$.evolutions[{i}]"
            if ev == "identity":
                evolutions.append("identity")
                continue
            ev = _expect(ev, dict, epath, "'identity' or {'matrix': ...}")
            _reject_unknown(ev, {"matrix"}, epath)
            m = _parse_matrix(_get(ev, "matrix", epath), f"{epath}.matrix")
            if m.shape != (total, total):
                raise DimMismatchError(f"{epath}.matrix: shape {m.shape} does not match total dim {total}")
            if not is_unitary(m, tol):
                raise ScenarioError("evolution matrix is not unitary", path=f"{epath}.matrix")
            evolutions.append(m)
        evolutions = tuple(evolutions)
    else:
        evolutions = tuple(["identity"] * n_intervals)

    observers_raw = _expect(_get(doc, "observers", "$"), list, "$.observers", "an array")
    observers = []
    seen_names: set[str] = set()
    for i, obs in enumerate(observers_raw):
        opath = f"$.observers[{i}]"
        obs = _expect(obs, dict, opath, "an object")
        _reject_unknown(obs, {"name", "measurements"}, opath)
        oname = _expect(_get(obs, "name", opath), str, f"{opath}.name", "a string")
        if oname in seen_names:
            raise ScenarioError(f"duplicate observer name {oname!r}", path=f"{opath}.name")
        seen_names.add(oname)
        meas_raw = _expect(_get(obs, "measurements", opath), list, f"{opath}.measurements", "an array")
        measurements = []
        seen_times: set[str] = set()
        for j, m in enumerate(meas_raw):
            mpath = f"{opath}.measurements[{j}]"
            m = _expect(m, dict, mpath, "an object")
            _reject_unknown(m, {"time", "observable"}, mpath)
            mtime = _expect(_get(m, "time", mpath), str, f"{mpath}.time", "a string")
            if mtime not in times:
                raise ScenarioError(f"time {mtime!r} is not on the grid", path=f"{mpath}.time")
            if mtime == times[0]:
                raise ScenarioError(
                    "measurements at the initial time are not allowed; t0 carries the initial state",
                    path=f"{mpath}.time",
                )
            if mtime in seen_times:
                raise ScenarioError(f"observer {oname!r} measures twice at {mtime!r}", path=f"{mpath}.time")
            seen_times.add(mtime)
            observable = _parse_observable(
                _get(m, "observable", mpath), f"{mpath}.observable", dims, total, tol
            )
            measurements.append(Measurement(time=mtime, observable=observable))
        observers.append(ObserverSpec(name=oname, measurements=tuple(measurements)))

    return Scenario(
        name=name,
        subsystem_dims=dims,
        initial_state=initial_state,
        times=times,
        evolutions=evolutions,
        observers=tuple(observers),
        tolerance_overrides=tolerance,
    )


def _check_presets(presets: tuple[str, ...], dims: tuple[int, ...], path: str) -> tuple[str, ...]:
    if len(presets) != len(dims):
        raise DimMismatchError(f"{path}: {len(presets)} presets for {len(dims)} factors")
    for i, (p, d) in enumerate(zip(presets, dims)):
        if p not in _QUBIT_PRESETS:
            raise UnknownOperatorError(f"unknown state preset {p!r}", path=f"{path}[{i}]")
        if d != 2:
            raise DimMismatchError(f"{path}[{i}]: preset {p!r} needs a qubit factor, dim is {d}")
    return presets


# ---------------------------------------------------------------------------
# serialization

def _complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_to_json(z) for z in row] for row in m]


def _observable_to_json(obs):
    if isinstance(obs, NamedObservable):
        return obs.name
    if isinstance(obs, MatrixObservable):
        return {"matrix": _matrix_to_json(obs.matrix)}
    return {
        "projectors": [
            {"label": label, "matrix": _matrix_to_json(m)}
            for label, m in zip(obs.labels, obs.matrices)
        ]
    }


def _scenario_to_jsonable(s: Scenario) -> dict:
    if isinstance(s.initial_state, tuple):
        state = list(s.initial_state) if len(s.initial_state) > 1 else s.initial_state[0]
    else:
        state = {"vector": [_complex_to_json(z) for z in s.initial_state]}
    doc = {
        "format": FORMAT_VERSION,
        "name": s.name,
        "systems": list(s.subsystem_dims),
        "initial_state": state,
        "times": list(s.times),
        "evolutions": [
            ev if isinstance(ev, str) else {"matrix": _matrix_to_json(ev)} for ev in s.evolutions
        ],
        "observers": [
            {
                "name": o.name,
                "measurements": [
                    {"time": m.time, "observable": _observable_to_json(m.observable)}
                    for m in o.measurements
                ],
            }
            for o in s.observers
        ],
    }
    if s.tolerance_overrides:
        names = [f.name for f in fields(Tolerance)]
        doc["tolerance"] = {k: s.tolerance_overrides[k] for k in names if k in s.tolerance_overrides}
    return doc


def serialize_scenario(s: Scenario) -> bytes:
    """Canonical UTF-8 bytes; defaults (identity evolutions) written explicitly."""
    return (json.dumps(s.to_jsonable(), indent=2, ensure_ascii=True) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# resolution

def effective_tolerance_from_overrides(overrides: dict[str, float]) -> Tolerance:
    return Tolerance(**{f.name: overrides.get(f.name, f.default) for f in fields(Tolerance)})


def effective_tolerance(s: Scenario, override: Tolerance | None = None) -> Tolerance:
    """Override wins over scenario file overrides, which win over defaults."""
    if override is not None:
        return override
    return effective_tolerance_from_overrides(s.tolerance_overrides)


def _embed(op: np.ndarray, factor: int, dims: tuple[int, ...]) -> np.ndarray:
    """Operator on the 1-based ``factor``, tensored with identities elsewhere."""
    left, right = math.prod(dims[: factor - 1]), math.prod(dims[factor:])
    out = op if left == 1 else np.kron(identity(left), op)
    return out if right == 1 else np.kron(out, identity(right))


def _measurement_key(spec) -> object:
    """What a slot's decomposition depends on: ``"identity"`` for the trivial
    slot and every identity, ``"sigma_z@3"`` for a Pauli, else the observable."""
    if spec is None:
        return "identity"
    if isinstance(spec, NamedObservable):
        base, _, suffix = spec.name.partition("@")
        return "identity" if base == "identity" else f"{base}@{suffix or 1}"
    return spec


def _decomposition(key, dims: tuple[int, ...], tol: Tolerance) -> ProjectiveDecomposition:
    """The validated decomposition of one ``_measurement_key``."""
    total = math.prod(dims)
    if isinstance(key, MatrixObservable):
        return _eigen_decomposition(key.matrix, tol)
    if isinstance(key, ProjectorListObservable):
        return _coerce_slot(list(zip(key.labels, key.matrices)), total, tol)
    if key == "identity":
        return _coerce_slot([(TRIVIAL_LABEL, identity(total))], total, tol)
    base, _, factor = key.partition("@")
    op, axis = _PAULI_OPS[base]
    plus = (identity(2) + op) / 2.0
    minus = (identity(2) - op) / 2.0
    pairs = [(f"+{axis}", _embed(plus, int(factor), dims)), (f"-{axis}", _embed(minus, int(factor), dims))]
    return _coerce_slot(pairs, total, tol)


def _initial_ket(s: Scenario) -> np.ndarray:
    if isinstance(s.initial_state, tuple):
        ket = np.eye(1, dtype=complex)[0]
        for preset in s.initial_state:
            ket = np.kron(ket, _QUBIT_PRESETS[preset])
        return ket
    return np.array(s.initial_state, dtype=complex)


def resolve(
    s: Scenario,
    tol: Tolerance | None = None,
    max_histories: int | None = None,
) -> list[ObserverRecord]:
    """Expand named operators and presets; build one family per observer.

    ``parse_scenario`` checks the document.  Here, under the effective
    tolerance, the initial ket and the evolutions are checked once for all
    observers, and each distinct measurement (a Pauli on one factor, the
    identity or trivial slot, or one observable object) becomes one validated
    decomposition that every slot measuring it shares.  The sharing is local
    to this call: nothing is kept between calls.

    Deterministic: identical input bytes yield bit-identical projectors.
    """
    tol = effective_tolerance(s, tol)
    cap = DEFAULT_MAX_HISTORIES if max_histories is None else max_histories
    grid = TimeGrid(s.times)
    ket = as_ket(_initial_ket(s), tol)
    ket.setflags(write=False)
    total = s.total_dim
    evolutions = _checked_evolutions(
        grid, [identity(total) if isinstance(ev, str) else ev for ev in s.evolutions], total, tol
    )
    decomps: dict[object, ProjectiveDecomposition] = {}
    records = []
    for obs in s.observers:
        by_time = {m.time: m.observable for m in obs.measurements}
        slots = []
        for t in grid.slot_times:
            key = _measurement_key(by_time.get(t))
            if key not in decomps:
                decomps[key] = _decomposition(key, s.subsystem_dims, tol)
            slots.append(decomps[key])
        family = _assemble_family(ket, grid, evolutions, slots, tol, cap)
        records.append(ObserverRecord(name=obs.name, family=family))
    return records
