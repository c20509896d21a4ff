"""Declarative scenario format: read, build, serialize, resolve.

A scenario is one JSON document (strict: unknown fields are rejected, since a
silent typo in a physics input produces silently wrong physics).  Complex
numbers are [re, im] pairs, matrices are row-major nested arrays, subsystem
addressing is 1-based ("sigma_z@1" acts on the first factor).
``parse_scenario`` reads a document into a ``Scenario``, whose construction
checks its structure; ``resolve`` checks its numbers and expands named
operators and presets into concrete history families, one
``ObserverRecord`` per observer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from typing import Any, Iterable

import numpy as np

from .errors import (
    DimMismatchError,
    QHistError,
    ScenarioError,
    ScenarioParseError,
    UnknownFieldError,
    UnknownOperatorError,
)
from .framework import (
    ProjectiveDecomposition,
    _eigen_decomposition,
    _ExactDecomposition,
    _joiner_in,
    _padded_decomposition,
)
from .histories import DEFAULT_MAX_HISTORIES, Evolution, TimeGrid, _assemble_family, _checked_evolution
from .linalg import (
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Tolerance,
    _frozen,
    _require_hermitian,
    as_ket,
    identity,
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
_TOLERANCE_FIELDS = tuple(f.name for f in fields(Tolerance))  # a document's tolerance keys, in written order
COMBINED_FAMILY = "combined"  # `conditional --family` name of the n-way fold; no observer may take it
_OBSERVABLE = "$.observers[{}].measurements[{}].observable"  # the JSONPath of measurement j of observer i
_OBSERVABLE_KINDS = "an operator name, {'matrix': ...}, or {'projectors': ...}"  # what an observable may be
_STATE_KINDS = "a preset name, a list of preset names, or {'vector': ...}"  # what an initial state may be
_PROJECTORS = "an array of labelled projectors"  # what a projector list must be

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

# each Pauli's read-only stack of qubit projectors ((1 + sigma)/2, (1 - sigma)/2)
_QUBIT_PROJECTORS = {
    base: _frozen(np.stack((identity(2) + op, identity(2) - op)) / 2.0)
    for base, (op, _) in _PAULI_OPS.items()
}


def _hold_tuples(obj, *names: str) -> None:
    """Store each list among the frozen ``obj``'s fields ``names`` as a
    tuple, so that no change to the list reaches what a build checked."""
    for name in names:
        if isinstance(getattr(obj, name), list):
            object.__setattr__(obj, name, tuple(getattr(obj, name)))


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

    def __post_init__(self) -> None:
        _hold_tuples(self, "labels", "matrices")


@dataclass(frozen=True, eq=False)
class Measurement:
    time: str
    observable: NamedObservable | MatrixObservable | ProjectorListObservable


@dataclass(frozen=True, eq=False)
class ObserverSpec:
    name: str
    measurements: tuple[Measurement, ...]

    def __post_init__(self) -> None:
        _hold_tuples(self, "measurements")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One scenario, valid by construction: building one applies the rules of
    a scenario's structure, in document order, and ``dataclasses.replace``
    re-checks.  A fault is raised with the error ``parse_scenario`` raises
    for it in a document, at its JSONPath there: the name (a string), the
    factor dimensions, the tolerance overrides (each then stored as a
    float), the presets or the vector's length, the times, the evolutions'
    count, names and matrix shapes, then each observer's type and name and
    each measurement's type, time, observable's type, operator name or
    matrix shapes, and a projector list's labels (one per matrix, each a
    string with no joiner) and length (not 0).  A part must be a tuple or a
    list where a document holds an array, and is held as a tuple (a
    projector list's matrices may also be one stacked array), a dict for the
    tolerance overrides, and a tuple of presets, a list or an array for the
    initial state; any other is refused as the reader refuses it in a
    document.  The numbers are not checked here: ``resolve`` checks them.
    Each measurement's check returns its key (``_check_observable``), and
    the build keeps, per observer and per slot, the (key, measurement index)
    pair there, ``("identity", None)`` where the observer does not measure,
    for ``resolve`` to read."""

    name: str
    subsystem_dims: tuple[int, ...]
    initial_state: tuple[str, ...] | np.ndarray  # presets or explicit vector
    times: tuple[str, ...]
    evolutions: tuple[Any, ...]  # "identity" | np.ndarray, one per interval
    observers: tuple[ObserverSpec, ...]
    tolerance_overrides: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _hold_tuples(self, "subsystem_dims", "times", "evolutions", "observers")
        if not isinstance(self.name, str):
            raise ScenarioError("expected a string", path="$.name")
        dims = _expect(self.subsystem_dims, tuple, "$.systems", "an array of factor dimensions")
        total = _check_dims(dims)
        _check_tolerance(_expect(self.tolerance_overrides, dict, "$.tolerance", "an object"))
        object.__setattr__(self, "tolerance_overrides",
                           {key: float(value) for key, value in self.tolerance_overrides.items()})
        if isinstance(self.initial_state, tuple):
            _check_presets(self.initial_state, dims)
        elif isinstance(self.initial_state, (list, np.ndarray)):
            _check_shape(np.shape(self.initial_state), (total,), "$.initial_state.vector")
        else:
            raise ScenarioError(f"expected {_STATE_KINDS}", path="$.initial_state")
        _check_times(_expect(self.times, tuple, "$.times", "an array of time labels"))
        _check_evolution_count(len(_expect(self.evolutions, tuple, "$.evolutions", "an array")),
                               len(self.times) - 1)
        for k, ev in enumerate(self.evolutions):
            if isinstance(ev, np.ndarray):
                _check_shape(ev.shape, (total, total), f"$.evolutions[{k}].matrix")
            else:
                _evolution_name(ev, k)
        names: set[str] = set()
        uses = []
        for i, obs in enumerate(_expect(self.observers, tuple, "$.observers", "an array")):
            if not isinstance(obs, ObserverSpec):
                raise ScenarioError("expected an object", path=f"$.observers[{i}]")
            _check_observer_name(obs.name, names, i)
            names.add(obs.name)
            if not isinstance(obs.measurements, tuple):
                raise ScenarioError("expected an array", path=f"$.observers[{i}].measurements")
            by_time = {}  # per time measured so far, its (key, measurement index)
            for j, m in enumerate(obs.measurements):
                if not isinstance(m, Measurement):
                    raise ScenarioError("expected an object", path=f"$.observers[{i}].measurements[{j}]")
                _check_time(m.time, self.times, by_time, obs.name, i, j)
                by_time[m.time] = (_check_observable(m.observable, dims, total, i, j), j)
            uses.append(tuple(by_time.get(t, ("identity", None)) for t in self.times[1:]))
        object.__setattr__(self, "_uses", tuple(uses))

    @property
    def total_dim(self) -> int:
        return math.prod(self.subsystem_dims)

    def to_jsonable(self) -> dict:
        if isinstance(self.initial_state, tuple):
            state = list(self.initial_state) if len(self.initial_state) > 1 else self.initial_state[0]
        else:
            state = {"vector": _array_to_json(self.initial_state)}
        doc = {
            "format": FORMAT_VERSION,
            "name": self.name,
            "systems": list(self.subsystem_dims),
            "initial_state": state,
            "times": list(self.times),
            "evolutions": [
                ev if isinstance(ev, str) else {"matrix": _array_to_json(ev)} for ev in self.evolutions
            ],
            "observers": [
                {
                    "name": o.name,
                    "measurements": [
                        {"time": m.time, "observable": _observable_to_json(m.observable)}
                        for m in o.measurements
                    ],
                }
                for o in self.observers
            ],
        }
        if self.tolerance_overrides:
            overrides = self.tolerance_overrides
            known = {key: overrides[key] for key in _TOLERANCE_FIELDS if key in overrides}
            doc["tolerance"] = {**known, **overrides}  # Tolerance's field order, then any other key
        return doc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self.to_jsonable() == other.to_jsonable()


# ---------------------------------------------------------------------------
# parsing

def _reject_unknown(obj: dict, allowed: Iterable[str], path: str) -> None:
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


_REAL = frozenset((int, float))  # exact types, so that bool is rejected
_INT_OVERFLOW = 2**1024 - 2**970  # the least integer too large for float(): it rounds past the largest double


def _parse_array(value, path: str, matrix: bool) -> np.ndarray:
    """The complex vector or, when ``matrix``, matrix that ``value`` holds as
    nested ``[re, im]`` pairs, bit for bit, in the shape it has there: its
    size is checked when its ``Scenario`` is built.

    One walk checks each entry in row-major order, so the first faulty one
    is named, and appends its two numbers to one flat list; rows of unequal
    length are refused after it.  One ``np.array`` call converts the flat
    list, which costs about half what converting the nested lists does,
    since numpy then has no shape to discover.  A JSONPath is built only for
    the error raised.
    """
    rows = value if matrix else [value]

    def at(*index: int) -> str:  # the JSONPath of rows[i] or rows[i][j]
        return path + "".join(f"[{k}]" for k in index[0 if matrix else 1:])

    if not isinstance(rows, list):
        raise ScenarioError("expected a matrix as nested arrays of [re, im] pairs", path=path)
    if not rows:
        raise ScenarioError("matrix must be nonempty", path=path)
    flat = []
    for i, row in enumerate(rows):
        if type(row) is not list:
            raise ScenarioError("expected an array of [re, im] pairs", path=at(i))
        if not row:
            raise ScenarioError("vector must be nonempty", path=at(i))
        for j, z in enumerate(row):
            if type(z) is not list or len(z) != 2 or type(z[0]) not in _REAL or type(z[1]) not in _REAL:
                raise ScenarioError("expected a complex number as [re, im]", path=at(i, j))
            flat += z
    width = len(rows[0])
    ragged = next((i for i, row in enumerate(rows) if len(row) != width), None)
    if ragged is not None:
        raise ScenarioError(f"row {ragged} has length {len(rows[ragged])}, expected {width}", path=path)
    try:
        pairs = np.array(flat, dtype=np.float64)
    except OverflowError:
        i, j = next((i, j) for i, row in enumerate(rows) for j, z in enumerate(row)
                    if any(type(x) is int and abs(x) >= _INT_OVERFLOW for x in z))
        raise ScenarioError("number does not fit an IEEE-754 double", path=at(i, j)) from None
    return pairs.view(np.complex128).reshape((len(rows), width) if matrix else width)


def _parse_observable(value, i: int, j: int):
    """The observable of ``$.observers[i].measurements[j]``."""
    if isinstance(value, str):
        return NamedObservable(name=value)
    path = _OBSERVABLE.format(i, j)
    value = _expect(value, dict, path, _OBSERVABLE_KINDS)
    if "matrix" in value:
        _reject_unknown(value, {"matrix"}, path)
        return MatrixObservable(matrix=_parse_array(value["matrix"], f"{path}.matrix", True))
    if "projectors" in value:
        _reject_unknown(value, {"projectors"}, path)
        entries = _expect(value["projectors"], list, f"{path}.projectors", _PROJECTORS)
        labels = []
        matrices = []
        for k, entry in enumerate(entries):
            epath = f"{path}.projectors[{k}]"
            entry = _expect(entry, dict, epath, "an object with 'label' and 'matrix'")
            _reject_unknown(entry, {"label", "matrix"}, epath)
            labels.append(_get(entry, "label", epath))
            matrices.append(_parse_array(_get(entry, "matrix", epath), f"{epath}.matrix", True))
        return ProjectorListObservable(labels=tuple(labels), matrices=tuple(matrices))
    raise UnknownFieldError("observable object needs 'matrix' or 'projectors'", path=path)


def _unique_members(pairs: list) -> dict:
    """A JSON object's members; a repeated key, whose first value ``json.loads`` would drop, is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"duplicate key {next(k for n, (k, _) in enumerate(pairs) if k in dict(pairs[:n]))!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_members)  # json.loads would build one per call


def _refuse_lone_surrogates(doc) -> None:
    """Refuse the first string of ``doc``, key or value, that holds a lone surrogate (a ``\\ud800``
    escape), which UTF-8 cannot encode; with its own stack, as ``doc`` may nest as deep as ``json`` reads."""
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, (dict, list)):
            stack += reversed([x for pair in value.items() for x in pair] if isinstance(value, dict) else value)
        elif isinstance(value, str) and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ScenarioParseError(f"not valid UTF-8: lone surrogate {value[exc.start]!r}") from None


def parse_scenario(data: bytes | str) -> Scenario:
    """Read one scenario document, then build its ``Scenario``.

    Reading checks what belongs to JSON: the encoding and syntax, a repeated
    key and a lone surrogate included, the ``format``, required and unknown
    fields, the JSON type of every object and array, and each array's
    ``[re, im]`` pairs and rows of one length.
    Building the ``Scenario`` then checks the structure, the other values'
    types included.  So of a fault of each kind, the reading's is raised,
    wherever it is; of two of one kind, the first in document order."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"not valid UTF-8: {exc}") from exc
    try:
        if data.startswith("\ufeff"):  # json.loads's refusal, which JSONDecoder.decode does not make
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", data, 0)
        doc = _DECODER.decode(data)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON: {exc.msg}", path=f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except RecursionError:
        raise ScenarioParseError("invalid JSON: arrays or objects nested too deeply") from None
    except ValueError as exc:  # a repeated key, or an integer literal past int's digit limit (4300 by default)
        raise ScenarioParseError(f"invalid JSON: {exc}") from None
    if "\\" in data or not data.isascii():  # only an escape, or raw text passed as a str, holds a surrogate
        _refuse_lone_surrogates(doc)
    doc = _expect(doc, dict, "$", "a JSON object")
    _reject_unknown(
        doc,
        {"format", "name", "systems", "initial_state", "times", "evolutions", "observers", "tolerance"},
        "$",
    )
    version = _get(doc, "format", "$")
    if type(version) is not int or version != FORMAT_VERSION:  # True and 1.0 equal 1 but are not ints
        raise ScenarioError(f"unsupported format {doc['format']!r}, expected {FORMAT_VERSION}", path="$.format")
    name = _get(doc, "name", "$")
    dims = tuple(_expect(_get(doc, "systems", "$"), list, "$.systems", "an array of factor dimensions"))
    tolerance = dict(_expect(doc["tolerance"], dict, "$.tolerance", "an object")) if "tolerance" in doc else {}

    state_raw = _get(doc, "initial_state", "$")
    initial_state: tuple[str, ...] | np.ndarray
    if isinstance(state_raw, str):
        initial_state = (state_raw,)
    elif isinstance(state_raw, list) and all(isinstance(x, str) for x in state_raw):
        initial_state = tuple(state_raw)
    elif isinstance(state_raw, dict):
        _reject_unknown(state_raw, {"vector"}, "$.initial_state")
        initial_state = _parse_array(_get(state_raw, "vector", "$.initial_state"), "$.initial_state.vector", False)
    else:
        raise ScenarioError(f"expected {_STATE_KINDS}", path="$.initial_state")

    times = tuple(_expect(_get(doc, "times", "$"), list, "$.times", "an array of time labels"))
    evolutions = _expect(doc.get("evolutions", ["identity"] * (len(times) - 1)), list, "$.evolutions", "an array")
    for k, ev in enumerate(evolutions):
        if isinstance(ev, dict):  # anything else is a name, which the Scenario checks
            epath = f"$.evolutions[{k}]"
            _reject_unknown(ev, {"matrix"}, epath)
            evolutions[k] = _parse_array(_get(ev, "matrix", epath), f"{epath}.matrix", True)

    observers = []
    for i, obs in enumerate(_expect(_get(doc, "observers", "$"), list, "$.observers", "an array")):
        opath = f"$.observers[{i}]"
        obs = _expect(obs, dict, opath, "an object")
        _reject_unknown(obs, {"name", "measurements"}, opath)
        oname = _get(obs, "name", opath)
        measurements = []
        for j, m in enumerate(_expect(_get(obs, "measurements", opath), list, f"{opath}.measurements", "an array")):
            mpath = f"{opath}.measurements[{j}]"
            m = _expect(m, dict, mpath, "an object")
            _reject_unknown(m, {"time", "observable"}, mpath)
            mtime = _get(m, "time", mpath)
            measurements.append(Measurement(mtime, _parse_observable(_get(m, "observable", mpath), i, j)))
        observers.append(ObserverSpec(name=oname, measurements=tuple(measurements)))

    return Scenario(name, dims, initial_state, times, tuple(evolutions), tuple(observers), tolerance)


# ``Scenario.__post_init__`` applies the checks below, the rules of a
# scenario's structure, once per build, ``parse_scenario``'s included; each
# error names the document's JSONPath.

def _check_dims(dims: tuple) -> int:
    """The total dimension of the factor dimensions ``dims``: at least one,
    each a positive integer, their product at most ``DEFAULT_MAX_DIM``."""
    if not dims:
        raise ScenarioError("systems must be nonempty", path="$.systems")
    for i, d in enumerate(dims):
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ScenarioError("factor dimension must be a positive integer", path=f"$.systems[{i}]")
    total = math.prod(dims)
    if total > DEFAULT_MAX_DIM:
        raise DimMismatchError(f"$.systems: total dim {total} exceeds cap {DEFAULT_MAX_DIM}")
    return total


def _check_tolerance(overrides: dict) -> None:
    """Each key a ``Tolerance`` field, each value a number it admits."""
    _reject_unknown(overrides, _TOLERANCE_FIELDS, "$.tolerance")
    for key, value in overrides.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not Tolerance.admits(value):
            raise ScenarioError("tolerance must be a number in [0, 1e-3]", path=f"$.tolerance.{key}")


def _check_presets(presets: tuple[str, ...], dims: tuple[int, ...]) -> None:
    """One known qubit preset per factor, each factor a qubit."""
    if len(presets) != len(dims):
        raise DimMismatchError(f"$.initial_state: {len(presets)} presets for {len(dims)} factors")
    for i, (p, d) in enumerate(zip(presets, dims)):
        if p not in _QUBIT_PRESETS:
            raise UnknownOperatorError(f"unknown state preset {p!r}", path=f"$.initial_state[{i}]")
        if d != 2:
            raise DimMismatchError(f"$.initial_state[{i}]: preset {p!r} needs a qubit factor, dim is {d}")


def _check_shape(size: tuple[int, ...], shape: tuple[int, ...], path: str) -> None:
    """A vector's or matrix's ``size`` must be ``shape``: (total,) or (total, total)."""
    if size != shape:
        raise DimMismatchError(f"{path}: shape {size} does not match total dim {shape[0]}")


def _check_times(times: tuple) -> None:
    """At least two time labels, each a string, none repeated."""
    for i, t in enumerate(times):
        if not isinstance(t, str):
            raise ScenarioError("expected a string", path=f"$.times[{i}]")
    if len(times) < 2:
        raise ScenarioError("need at least two times (t0 plus one slot)", path="$.times")
    if len(set(times)) != len(times):
        raise ScenarioError("time labels must be unique", path="$.times")


def _check_evolution_count(n: int, n_intervals: int) -> None:
    """One evolution per interval of the grid."""
    if n != n_intervals:
        raise DimMismatchError(f"$.evolutions: expected {n_intervals} evolutions, got {n}")


def _evolution_name(ev, k: int) -> None:
    """Evolution ``k``, not a matrix, which must be ``"identity"``."""
    if ev != "identity":
        raise ScenarioError("expected 'identity' or {'matrix': ...}", path=f"$.evolutions[{k}]")


def _check_observer_name(name, seen: set, i: int) -> None:
    """Observer ``i``'s name: a string, not ``COMBINED_FAMILY``, and not in
    ``seen``.  Its JSONPath is built only for the error raised."""
    if not isinstance(name, str):
        fault = "expected a string"
    elif name == COMBINED_FAMILY:
        fault = f"observer name {name!r} is reserved"
    elif name in seen:
        fault = f"duplicate observer name {name!r}"
    else:
        return
    raise ScenarioError(fault, path=f"$.observers[{i}].name")


def _check_time(time, times: tuple, seen, observer: str, i: int, j: int) -> None:
    """The time of measurement ``j`` of observer ``i``: a string on the grid
    ``times``, after its first time, and not in ``seen``, the times
    ``observer`` measured before.  Its JSONPath is built only for the error
    raised."""
    if not isinstance(time, str):
        fault = "expected a string"
    elif time not in times:
        fault = f"time {time!r} is not on the grid"
    elif time == times[0]:
        fault = "measurements at the initial time are not allowed; t0 carries the initial state"
    elif time in seen:
        fault = f"observer {observer!r} measures twice at {time!r}"
    else:
        return
    raise ScenarioError(fault, path=f"$.observers[{i}].measurements[{j}].time")


def _check_operator(name: str, dims: tuple[int, ...], i: int, j: int) -> str | tuple[str, int]:
    """The key of the operator ``name`` names on a system of ``dims``:
    ``"identity"`` for ``identity[@k]``, and ``(base, factor)`` for a Pauli,
    a bare one's factor 1.  ``name`` is refused at ``_OBSERVABLE``'s path
    for ``i`` and ``j``, built only then: a base that is not an operator, or
    an ``@k`` suffix that is not a factor 1..len(dims) in ASCII digits, as
    an UnknownOperatorError at it; a Pauli on a factor that is not a qubit,
    or a bare one on a system other than one qubit, as a DimMismatchError
    prefixed with it.  (``str.isdigit`` also passes "²", which ``int``
    refuses, and "１".)"""
    base, _, suffix = name.partition("@")
    if base not in _PAULI_OPS and base != "identity":
        raise UnknownOperatorError(f"unknown operator {name!r}", path=_OBSERVABLE.format(i, j))
    if suffix:
        factor = int(suffix) if suffix.isascii() and suffix.isdigit() else None
        if factor is None or not 1 <= factor <= len(dims):
            raise UnknownOperatorError(f"subsystem index in {name!r} must be 1..{len(dims)}",
                                       path=_OBSERVABLE.format(i, j))
        if base in _PAULI_OPS and dims[factor - 1] != 2:
            raise DimMismatchError(f"{_OBSERVABLE.format(i, j)}: {name!r} needs a qubit factor, "
                                   f"dim is {dims[factor - 1]}")
    elif base in _PAULI_OPS and (len(dims) != 1 or dims[0] != 2):
        raise DimMismatchError(
            f"{_OBSERVABLE.format(i, j)}: bare {base!r} needs a single-qubit system; use '@k' to pick a factor"
        )
    return "identity" if base == "identity" else (base, factor if suffix else 1)


def _check_observable(spec, dims: tuple[int, ...], total: int, i: int, j: int) -> object:
    """The key of the observable ``spec`` of measurement ``j`` of observer
    ``i``: a name of an operator gets ``_check_operator``'s, and a
    (total, total) matrix or a nonempty list of (total, total) projectors,
    one string label each, no label of which has a joiner, is its own.
    Anything else, a ``NamedObservable`` whose name is not a string
    included, is refused as the reader refuses an observable that is
    neither a string nor an object."""
    if isinstance(spec, NamedObservable) and isinstance(spec.name, str):
        return _check_operator(spec.name, dims, i, j)
    path = _OBSERVABLE.format(i, j)
    if isinstance(spec, MatrixObservable):
        _check_shape(np.shape(spec.matrix), (total, total), f"{path}.matrix")
    elif not isinstance(spec, ProjectorListObservable):
        raise ScenarioError(f"expected {_OBSERVABLE_KINDS}", path=path)
    elif not isinstance(spec.labels, tuple) or not isinstance(spec.matrices, (tuple, np.ndarray)):
        raise ScenarioError(f"expected {_PROJECTORS}", path=f"{path}.projectors")
    else:
        if len(spec.labels) != len(spec.matrices):
            raise ScenarioError(f"{len(spec.labels)} labels for {len(spec.matrices)} matrices",
                                path=f"{path}.projectors")
        for k, (label, matrix) in enumerate(zip(spec.labels, spec.matrices)):
            if not isinstance(label, str):
                raise ScenarioError("expected a string", path=f"{path}.projectors[{k}].label")
            joiner = _joiner_in(label)
            if joiner is not None:
                raise ScenarioError(f"label {label!r} contains the joiner {joiner!r}",
                                    path=f"{path}.projectors[{k}].label")
            _check_shape(np.shape(matrix), (total, total), f"{path}.projectors[{k}].matrix")
        if not spec.labels:
            raise ScenarioError("projector list must be nonempty", path=f"{path}.projectors")
    return spec


# ---------------------------------------------------------------------------
# serialization

def _array_to_json(array) -> list:
    """A complex vector or matrix as nested ``[re, im]`` pairs of floats."""
    a = np.asarray(array, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _observable_to_json(obs):
    if isinstance(obs, NamedObservable):
        return obs.name
    if isinstance(obs, MatrixObservable):
        return {"matrix": _array_to_json(obs.matrix)}
    return {
        "projectors": [
            {"label": label, "matrix": _array_to_json(m)}
            for label, m in zip(obs.labels, obs.matrices)
        ]
    }


def serialize_scenario(s: Scenario) -> bytes:
    """Canonical UTF-8 bytes; defaults (identity evolutions) written explicitly."""
    return (json.dumps(s.to_jsonable(), indent=2, ensure_ascii=True) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# resolution

def effective_tolerance(s: Scenario, override: Tolerance | None = None) -> Tolerance:
    """Override wins over scenario file overrides, which win over defaults;
    with neither, ``DEFAULT_TOL`` itself."""
    if override is not None:
        return override
    return replace(DEFAULT_TOL, **s.tolerance_overrides) if s.tolerance_overrides else DEFAULT_TOL


def _embed(ops: np.ndarray, factor: int, dims: tuple[int, ...]) -> np.ndarray:
    """Each operator of an (n, k, k) stack on the 1-based ``factor``,
    tensored with identities elsewhere, by broadcasting the whole stack, as
    a new array.

    Entry for entry this is ``kron(kron(1_left, op), 1_right)``, sign of zero
    included: each side's identity multiplies in, in that order, only when
    that side is larger than 1, since a product with a complex 1 can turn
    -0.0 into +0.0.
    """
    n, k = ops.shape[:2]
    left, right = math.prod(dims[: factor - 1]), math.prod(dims[factor:])
    if left == right == 1:
        return ops.copy()
    out = ops[:, None, :, None, None, :, None]  # axes (n, left, k, right, left, k, right)
    if left > 1:
        out = identity(left)[:, None, None, :, None, None] * out
    if right > 1:
        out = out * identity(right)[:, None, None, :]
    return out.reshape(n, left * k * right, left * k * right)


def _measurement_slot(key, dims: tuple[int, ...], tol: Tolerance) -> ProjectiveDecomposition:
    """The decomposition of one measurement's key, which a ``Scenario``
    takes from ``_check_observable`` as it is built: ``"identity"``, a
    Pauli's ``(base, factor)``, or a matrix or projector-list observable.

    The trivial slot (the identity) and a Pauli's (1 ± sigma)/2 embedded on
    a qubit factor are exact by construction: their entries are 0, 1, ±1/2
    and ±i/2, multiplied only by exact 0s and 1s, so every residual
    validation would compute is exactly 0.  They are returned as
    ``framework._ExactDecomposition``s over a read-only stack built for this
    call, unvalidated (their products may be too: ``_pair_products``);
    ``tests/test_resolve.py`` checks the constants instead.  A matrix's
    eigenprojectors and a projector list are validated; only a list may
    need the "rest" pad, so only it goes through ``_padded_decomposition``.
    """
    total = math.prod(dims)
    if isinstance(key, MatrixObservable):
        return _eigen_decomposition(key.matrix, tol)
    if isinstance(key, ProjectorListObservable):
        return _padded_decomposition(key.labels, key.matrices, total, tol)
    if key == "identity":
        return _ExactDecomposition(total, _frozen(np.eye(total, dtype=complex)[None]), (TRIVIAL_LABEL,))
    base, factor = key
    axis = _PAULI_OPS[base][1]
    embedded = _embed(_QUBIT_PROJECTORS[base], factor, dims)
    return _ExactDecomposition(total, _frozen(embedded), (f"+{axis}", f"-{axis}"))


def _content_key(spec, i: int, j: int) -> tuple:
    """The key ``resolve`` shares the decomposition of the matrix or
    projector-list observable ``spec`` of measurement ``j`` of observer
    ``i`` under: its content, as ``resolve`` reads it, its labels (None for a
    matrix) and each array's shape, dtype and bytes."""
    labels, arrays = (None, (spec.matrix,)) if isinstance(spec, MatrixObservable) else (spec.labels, spec.matrices)
    try:
        return labels, tuple([(a.shape, a.dtype, a.tobytes()) for a in map(np.asarray, arrays)])
    except ValueError as exc:
        exc.args = (f"{_OBSERVABLE.format(i, j)}: {exc}",)
        raise


def _initial_ket(s: Scenario) -> np.ndarray:
    """The explicit vector, or the presets' product state: the outer product
    folded from a leading 1, which multiplies the amplitudes as ``np.kron``
    would, bit for bit."""
    if isinstance(s.initial_state, tuple):
        presets = [_QUBIT_PRESETS[p] for p in s.initial_state]
        return reduce(np.multiply.outer, presets, np.ones(1, dtype=complex)).ravel()
    return np.array(s.initial_state, dtype=complex)


def resolve(
    s: Scenario,
    tol: Tolerance | None = None,
    max_histories: int = DEFAULT_MAX_HISTORIES,
    observers: Iterable[str] | None = None,
) -> list[ObserverRecord]:
    """Expand named operators and presets; build one family per observer
    named in ``observers`` (None, the default: every observer).

    ``s`` is valid by construction, so its structure is not checked again,
    and its names are not read again: each slot's key is the one its build
    kept.  Its numbers are checked.  Under the effective tolerance, every
    number the file supplies is checked, for every observer, named or not:
    the initial ket (norm included), once, each distinct evolution matrix,
    each distinct projector list (padded and validated as a decomposition,
    since the list itself is the input; a fault is a
    ``BadDecompositionError``), and each distinct matrix observable's
    squareness, finiteness and Hermiticity (``linalg._require_hermitian``).
    Every ``"identity"`` interval shares one read-only identity, which is
    exact and not checked.  Only for the observers named is anything built:
    each distinct measurement they use (a Pauli on one factor, the identity
    or trivial slot, or a matrix or projector-list observable, keyed by its
    content: ``_content_key``) becomes one decomposition
    (``_measurement_slot``) that every slot measuring it shares, and each of
    them gets its family, under the ``max_histories`` cap.  A matrix
    observable that only other observers use is not decomposed, so its
    eigenprojectors are not validated.  Each distinct measurement is checked
    at its first use and built at its first use by an observer named, in
    observer and slot order, so the error raised is the first met in that
    order, a history cap of an earlier named observer included.  Every error
    starts with a JSONPath: the initial state's (raised as a ScenarioError),
    the evolution's, or the measurement's that checks or builds; the others
    keep their type.  A name in ``observers`` that the scenario does not have
    is ignored.  The records come in scenario order.  The sharing is local
    to this call: nothing is kept between calls.

    Deterministic: identical input bytes yield bit-identical projectors.
    """
    dims = s.subsystem_dims
    tol = effective_tolerance(s, tol)
    grid = TimeGrid(s.times)
    state_path = "$.initial_state" if isinstance(s.initial_state, tuple) else "$.initial_state.vector"
    try:
        ket = as_ket(_initial_ket(s), tol)
    except ValueError as exc:
        raise ScenarioError(str(exc), path=state_path) from None
    ket.setflags(write=False)
    evolutions = []
    unitaries: dict[object, np.ndarray] = {}  # "identity", or an interval's index
    for k, ev in enumerate(s.evolutions):
        key = ev if isinstance(ev, str) else k
        if key not in unitaries:
            try:
                u = None if isinstance(ev, str) else ev
                unitaries[key] = _checked_evolution(grid, k, u, s.total_dim, tol).unitary
            except (QHistError, ValueError) as exc:
                exc.args = (f"$.evolutions[{k}].matrix: {exc}",)
                raise
        evolutions.append(Evolution(start=grid.labels[k], end=grid.labels[k + 1], unitary=unitaries[key]))
    wanted = None if observers is None else set(observers)
    decomps = {}  # per key: its decomposition, or None while only observers not named have used it
    records = []
    for i, obs in enumerate(s.observers):
        named = wanted is None or obs.name in wanted
        slots = []
        for spec, j in s._uses[i]:
            key = spec if isinstance(spec, (str, tuple)) else _content_key(spec, i, j)  # a name's key is its own
            if decomps.get(key) is None and (named or key not in decomps):  # a first use, or a first named one
                try:
                    decomps[key] = None  # unread: a name has nothing left to check, and a list is checked as built
                    if named or isinstance(spec, ProjectorListObservable):
                        decomps[key] = _measurement_slot(spec, dims, tol)
                    elif isinstance(spec, MatrixObservable):  # an unread matrix is checked, not decomposed
                        _require_hermitian(spec.matrix, tol)
                except (QHistError, ValueError) as exc:
                    exc.args = (f"{_OBSERVABLE.format(i, j)}: {exc}",)
                    raise
            slots.append(decomps[key])
        if named:
            family = _assemble_family(ket, grid, tuple(evolutions), slots, max_histories)
            records.append(ObserverRecord(name=obs.name, family=family))
    return records
