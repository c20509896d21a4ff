"""``scenario.resolve``: embedded projectors, one decomposition per distinct
measurement within a call, evolutions checked once, and unchanged errors."""

import gc
import itertools
import json
import math
import re
from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhist.framework
import qhist.histories
import qhist.scenario
from qhist import cli
from qhist.errors import (
    BadDecompositionError,
    DimMismatchError,
    HistoryLimitError,
    NotAProjectorError,
    NotCompleteError,
    NotHermitianError,
    NotOrthogonalError,
    NotUnitaryError,
    QHistError,
    ScenarioError,
    UnknownFieldError,
    UnknownOperatorError,
)
from qhist.framework import ProjectiveDecomposition, _validated, make_decomposition
from qhist.histories import consistency_check
from qhist.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, Tolerance, identity, is_unitary, max_abs
from qhist.scenario import (
    Measurement,
    MatrixObservable,
    NamedObservable,
    ObserverSpec,
    ProjectorListObservable,
    Scenario,
    _check_observable,
    _measurement_slot,
    effective_tolerance,
    parse_scenario,
    resolve,
    serialize_scenario,
)
from qhist.stablefacts import Verdict, check_compatibility

from helpers import GALLERY_NAMES, gallery, random_scenario

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def observer(name, by_time):
    return ObserverSpec(name, tuple(Measurement(t, obs) for t, obs in by_time.items()))


def scenario(dims, evolutions, observers):
    total = int(np.prod(dims))
    return Scenario(
        name="resolve",
        subsystem_dims=tuple(dims),
        initial_state=identity(total)[0],
        times=tuple(f"t{k}" for k in range(len(evolutions) + 1)),
        evolutions=tuple(evolutions),
        observers=tuple(observers),
    )


def _unchecked(base: Scenario, **change) -> Scenario:
    """``base`` with ``change``, built around ``Scenario``'s checks, only to
    write the document that such a scenario would have."""
    s = object.__new__(Scenario)
    for f in fields(Scenario):
        object.__setattr__(s, f.name, change.get(f.name, getattr(base, f.name)))
    return s


# the three ways to a Scenario with ``change``: reading its document, building
# it, and ``replace`` on the valid ``base``
ROUTES = {
    "parse": lambda base, change: parse_scenario(serialize_scenario(_unchecked(base, **change))),
    "build": lambda base, change: Scenario(**{**{f.name: getattr(base, f.name) for f in fields(Scenario)}, **change}),
    "replace": lambda base, change: replace(base, **change),
}


def _refusal(route: str, base: Scenario, **change) -> tuple[type, str]:
    """The type and message of the error that ``route`` to ``base`` with ``change`` raises."""
    with pytest.raises(QHistError) as info:
        ROUTES[route](base, change)
    return type(info.value), str(info.value)


def _refusals(base: Scenario, **change) -> list[tuple[type, str]]:
    """The errors of every route to ``base`` with ``change``."""
    return [_refusal(route, base, **change) for route in ROUTES]


def kron_fold(op, factor, dims):
    """``op`` on the 1-based ``factor``, one Kronecker product per factor."""
    return reduce(np.kron, [op if k == factor else np.eye(d) for k, d in enumerate(dims, 1)], np.eye(1))


@given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=6).filter(lambda ds: np.prod(ds) <= 64))
@settings(max_examples=60, deadline=None)
def test_named_projectors_match_a_per_factor_kron_fold(dims):
    names = [f"sigma_{axis}@{k}" for k, d in enumerate(dims, 1) if d == 2 for axis in "xyz"]
    scn = scenario(dims, ["identity"], [observer(n, {"t1": NamedObservable(n)}) for n in names])
    for name, record in zip(names, resolve(scn)):
        axis, factor = name[len("sigma_")], int(name.partition("@")[2])
        decomp = record.family.slot_decompositions[0]
        for sign, label in ((1, f"+{axis}"), (-1, f"-{axis}")):
            expected = kron_fold((np.eye(2) + sign * PAULI[axis]) / 2, factor, dims)
            assert np.array_equal(decomp.projector_for(label), expected), (dims, label)


@given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=6).filter(lambda ds: np.prod(ds) <= 64))
@settings(max_examples=60, deadline=None)
def test_named_projectors_match_a_per_factor_kron_fold_bit_for_bit(dims):
    # tobytes tells -0.0 from +0.0, which np.array_equal does not
    names = ["identity"] + [f"sigma_{axis}@{k}" for k, d in enumerate(dims, 1) if d == 2 for axis in "xyz"]
    scn = scenario(dims, ["identity"], [observer(n, {"t1": NamedObservable(n)}) for n in names])
    records = resolve(scn)
    assert records[0].family.slot_decompositions[0].projectors.tobytes() == identity(int(np.prod(dims))).tobytes()
    for name, record in zip(names[1:], records[1:]):
        axis, factor = name[len("sigma_")], int(name.partition("@")[2])
        decomp = record.family.slot_decompositions[0]
        for sign, label in ((1, f"+{axis}"), (-1, f"-{axis}")):
            expected = kron_fold((np.eye(2) + sign * PAULI[axis]) / 2, factor, dims)
            assert decomp.projector_for(label).tobytes() == expected.tobytes(), (dims, label)


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
@pytest.mark.parametrize("axis", "xyz")
def test_a_pauli_slot_is_its_two_projectors_and_no_rest(axis, factor):
    """A named Pauli is (1 ± sigma)/2 embedded, which sums to the identity
    exactly: the slot has no "rest" pad, and its projectors are those
    ``make_decomposition`` builds from the Kronecker embedding, bit for bit."""
    dims = (2, 2, 2, 2)
    scn = scenario(dims, ["identity"], [observer("A", {"t1": NamedObservable(f"sigma_{axis}@{factor}")})])
    (record,) = resolve(scn)
    decomp = record.family.slot_decompositions[0]
    labels = (f"+{axis}", f"-{axis}")
    assert decomp.labels == labels
    expected = make_decomposition(
        [kron_fold((identity(2) + sign * PAULI[axis]) / 2.0, factor, dims) for sign in (1, -1)], labels
    )
    assert decomp.projectors.tobytes() == expected.projectors.tobytes()


@pytest.mark.parametrize("route", ROUTES)
def test_a_hand_built_pauli_on_a_factor_that_is_not_a_qubit_is_refused_as_parse_scenario_refuses_it(route):
    # before, resolve embedded sigma_z on the 3-dim factor to 4x4 in a 6-dim
    # space, and refused the misfit shape as a BadDecompositionError
    a = observer("A", {"t1": NamedObservable("identity")})
    faulty = (a, observer("B", {"t1": NamedObservable("sigma_z@1")}))
    assert _refusal(route, scenario((3, 2), ["identity"], [a]), observers=faulty) == (
        DimMismatchError, "$.observers[1].measurements[0].observable: 'sigma_z@1' needs a qubit factor, dim is 3"
    )


@pytest.mark.parametrize("dims", [(2, 2), (3,), (2, 3), (1, 2)])
@pytest.mark.parametrize("route", ROUTES)
def test_a_hand_built_bare_pauli_needs_a_single_qubit_as_parse_scenario_says(dims, route):
    # before, resolve read a bare sigma_z on (2, 2) as sigma_z@1
    a = observer("A", {"t1": NamedObservable("identity")})
    base = scenario(dims, ["identity"], [a])
    faulty = (a, observer("B", {"t1": NamedObservable("sigma_z")}))
    error = _refusal(route, base, observers=faulty)
    assert error == _refusal("parse", base, observers=faulty)
    assert error[0] is DimMismatchError
    assert error[1].startswith("$.observers[1].measurements[0].observable: bare 'sigma_z' needs")


EXACT = Tolerance.uniform(0.0)

# factor sizes 1-5, at least one qubit, total dim at most 64
DIMS_WITH_A_QUBIT = (
    st.tuples(st.lists(st.integers(1, 5), max_size=4), st.lists(st.integers(1, 5), max_size=4))
    .map(lambda sides: (*sides[0], 2, *sides[1]))
    .filter(lambda dims: math.prod(dims) <= 64)
)


def named_specs(dims):
    """The trivial slot (None), ``identity`` and every Pauli on every qubit factor."""
    paulis = [f"sigma_{axis}@{k}" for k, d in enumerate(dims, 1) if d == 2 for axis in "xyz"]
    return [None] + [NamedObservable(name) for name in ["identity", *paulis]]


def key_of(spec, dims):
    """The key a ``Scenario`` of ``dims`` keeps for ``spec``: the trivial slot's for None."""
    return "identity" if spec is None else _check_observable(spec, dims, math.prod(dims), 0, 0)


@given(DIMS_WITH_A_QUBIT)
@settings(max_examples=100, deadline=None)
def test_named_decompositions_are_exact(dims):
    """``resolve`` does not validate a named decomposition: each is exact by
    construction, which this checks instead.  Validation at tolerance 0
    passes, every residual it reads is exactly 0, and the projectors are
    those ``make_decomposition`` builds from the Kronecker embedding, bit for
    bit (tobytes tells -0.0 from +0.0)."""
    total = math.prod(dims)
    for spec in named_specs(dims):
        decomp = _measurement_slot(key_of(spec, dims), dims, EXACT)
        assert isinstance(decomp, ProjectiveDecomposition), spec
        p = decomp.projectors
        assert _validated(p.copy(), decomp.labels, EXACT).projectors.tobytes() == p.tobytes()
        residuals = [
            max_abs(p - p.conj().swapaxes(-2, -1)),  # Hermitian
            max_abs(p @ p - p),  # idempotent
            max_abs(p[0] @ p[1:]) if len(p) > 1 else 0.0,  # orthogonal
            max_abs(p.sum(axis=0) - identity(total)),  # complete
        ]
        assert residuals == [0.0] * 4, (dims, spec, residuals)
        if spec is None or spec.name == "identity":
            expected = make_decomposition([np.eye(total)], ["any"], EXACT)
        else:
            axis, factor = spec.name[len("sigma_")], int(spec.name.partition("@")[2])
            ops = [kron_fold((np.eye(2) + sign * PAULI[axis]) / 2, factor, dims) for sign in (1, -1)]
            expected = make_decomposition(ops, [f"+{axis}", f"-{axis}"], EXACT)
        assert decomp.labels == expected.labels
        assert p.tobytes() == expected.projectors.tobytes(), (dims, spec)


def test_the_identity_interval_is_exactly_unitary():
    for d in range(1, 65):
        assert is_unitary(identity(d), EXACT), d


@pytest.mark.parametrize("dims", [(2,), (2, 3, 2)])
def test_named_stacks_are_built_per_call_and_read_only(dims):
    for spec in named_specs(dims):
        key = key_of(spec, dims)
        first, second = (_measurement_slot(key, dims, EXACT).projectors for _ in range(2))
        assert not first.flags.writeable
        assert not np.shares_memory(first, second)
        for shared in (*qhist.scenario._QUBIT_PROJECTORS.values(), identity(math.prod(dims))):
            assert not np.shares_memory(first, shared)


def test_preset_ket_matches_a_kron_fold_bit_for_bit():
    presets = qhist.scenario._QUBIT_PRESETS
    for n in (1, 2, 3):
        for names in itertools.product(presets, repeat=n):
            scn = replace(scenario((2,) * n, ["identity"], [observer("A", {})]), initial_state=names)
            (record,) = resolve(scn)
            expected = reduce(np.kron, [presets[p] for p in names], np.eye(1, dtype=complex)[0])
            assert record.family.initial_ket.tobytes() == expected.tobytes(), names


def four_observers() -> Scenario:
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    matrix = MatrixObservable(h + h.conj().T)
    half = ProjectorListObservable(("low",), (np.diag([1, 1, 0, 0]).astype(complex),))
    return scenario(
        (2, 2),
        ["identity", CNOT, "identity"],
        [
            observer("A", {"t1": NamedObservable("sigma_z@1"), "t3": NamedObservable("sigma_x@2")}),
            observer("B", {"t1": NamedObservable("sigma_z@1"), "t2": matrix}),
            observer("C", {"t2": half, "t3": NamedObservable("sigma_x@2")}),
            observer("D", {"t1": NamedObservable("identity"), "t2": matrix}),
        ],
    )


def test_each_distinct_measurement_is_validated_once(monkeypatch):
    calls = {"_validated": 0, "is_unitary": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(qhist.framework, "_validated")
    counted(qhist.histories, "is_unitary")
    records = resolve(four_observers())
    # the matrix and the projector list (trivial/identity, sigma_z@1 and
    # sigma_x@2 are exact); CNOT (the identity evolution is exact)
    assert calls == {"_validated": 2, "is_unitary": 1}
    a, b, c, d = (r.family.slot_decompositions for r in records)
    assert a[0] is b[0] and a[2] is c[2] and b[1] is d[1]
    assert a[1] is d[0] is d[2]


def test_spellings_of_one_measurement_share_one_decomposition():
    spellings = ["sigma_z", "sigma_z@1", "sigma_z@01", "identity@1", "identity"]
    scn = scenario((2,), ["identity", "identity"], [observer(n, {"t1": NamedObservable(n)}) for n in spellings])
    z, z1, z01, identity_1, plain_identity = (r.family.slot_decompositions for r in resolve(scn))
    assert z[0] is z1[0] is z01[0]
    assert z[0].labels == ("+z", "-z")
    assert identity_1[0] is plain_identity[0] is z[1]  # z[1] is the trivial slot
    assert z[1].labels == ("any",)


def test_a_pauli_no_named_observer_reads_is_not_embedded(monkeypatch):
    embedded = []
    original = qhist.scenario._embed
    monkeypatch.setattr(qhist.scenario, "_embed", lambda ops, factor, dims: embedded.append(factor) or
                        original(ops, factor, dims))
    resolve(four_observers(), observers=["B"])
    assert embedded == [1]  # B's sigma_z@1; A's and C's sigma_x@2 are not built


def test_separate_calls_share_no_decomposition():
    scn = four_observers()
    first, second = resolve(scn), resolve(scn)
    ids = [{id(d) for r in records for d in r.family.slot_decompositions} for records in (first, second)]
    assert ids[0].isdisjoint(ids[1])


def _resolved(scn: Scenario) -> list:
    """Per slot of each family, its labels, its projectors' bytes and the
    index of the first slot that shares its decomposition."""
    decomps = [d for r in resolve(scn) for d in r.family.slot_decompositions]
    first = {}
    return [(d.labels, d.projectors.tobytes(), first.setdefault(id(d), k)) for k, d in enumerate(decomps)]


def test_the_keys_of_a_replaced_scenario_are_its_own():
    # no matrix or projector list is measured twice, since a document reads
    # it back as one object per measurement
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x2 = NamedObservable("sigma_x@2")
    others = (
        observer("B", {"t1": NamedObservable("sigma_z@1"), "t2": NamedObservable("identity")}),
        observer("C", {"t2": ProjectorListObservable(("low",), (np.diag([1, 1, 0, 0]).astype(complex),)), "t3": x2}),
    )
    base = scenario((2, 2), ["identity", CNOT, "identity"],
                    [observer("A", {"t1": NamedObservable("sigma_z@1"), "t3": x2}), *others])
    for swapped in (NamedObservable("sigma_y@2"), MatrixObservable(h + h.conj().T)):
        new = replace(base, observers=(observer("A", {"t1": swapped, "t3": x2}), *others))
        assert _resolved(new) == _resolved(parse_scenario(serialize_scenario(new)))
        assert _resolved(new) != _resolved(base)


def test_a_list_changed_after_the_build_changes_nothing_built():
    # before, a built Scenario held the lists it was given, and resolve read
    # the keys its build had kept: A's slot resolved as +z/-z under sigma_x
    base = four_observers()
    labels, matrices = ["low"], [np.diag([1, 1, 0, 0]).astype(complex)]
    measurements = [Measurement("t2", ProjectorListObservable(labels, matrices))]
    observers = [*base.observers[:2], ObserverSpec("C", measurements), base.observers[3]]
    dims, times, evolutions = [2, 2], list(base.times), list(base.evolutions)
    scns = (Scenario(base.name, dims, base.initial_state, times, evolutions, observers),
            replace(base, observers=observers))
    expected = [_resolved(scn) for scn in scns]
    observers[0] = observer("A", {"t1": NamedObservable("sigma_x@1")})
    measurements.append(Measurement("t3", NamedObservable("sigma_z@2")))
    labels[0], matrices[0] = "high", np.diag([0, 0, 1, 1]).astype(complex)
    dims[0], evolutions[1] = 3, "identity"
    times.append("t4")
    for scn, resolved in zip(scns, expected):
        assert scn.observers[0] is base.observers[0]
        assert scn.observers[0].measurements[0].observable.name == "sigma_z@1"
        assert _resolved(scn) == resolved
    built = scns[0]
    spec = built.observers[2].measurements[0].observable
    assert (built.subsystem_dims, built.times, len(built.observers[2].measurements)) == ((2, 2), base.times, 1)
    assert (spec.labels, spec.matrices[0].tobytes()) == (("low",), np.diag([1, 1, 0, 0]).astype(complex).tobytes())
    assert built.evolutions[1] is CNOT


def _validated_calls(scn: Scenario, monkeypatch) -> int:
    """How many times resolving ``scn`` calls ``framework._validated``."""
    calls = []
    original = qhist.framework._validated
    monkeypatch.setattr(qhist.framework, "_validated", lambda *args: calls.append(1) or original(*args))
    resolve(scn)
    return len(calls)


def test_an_observable_written_twice_is_decomposed_once_after_a_round_trip(monkeypatch):
    # before, a document's two equal matrices were two objects, so two keys:
    # three calls, where one object as built made two
    scn = four_observers()
    for route in (scn, parse_scenario(serialize_scenario(scn))):
        assert _validated_calls(route, monkeypatch) == 2  # the matrix and the projector list
        _, b, _, d = (r.family.slot_decompositions for r in resolve(route))
        assert b[1] is d[1]


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_a_copied_observable_resolves_alike_as_built_and_read_back(seed, pick):
    """One matrix or projector-list measurement of a random scenario (a new
    random matrix when it has none), given to two more observers: one object
    as built, three once its document is read back.  Both resolve to the
    same labels, the same projector bytes and the same slots sharing one
    decomposition, the copies' slots among them, or raise the same error."""
    rng = np.random.default_rng(seed)
    scn = random_scenario(rng)
    arrays = [m for obs in scn.observers for m in obs.measurements
              if isinstance(m.observable, (MatrixObservable, ProjectorListObservable))]
    if arrays:
        m = arrays[pick % len(arrays)]
    else:
        h = rng.normal(size=(scn.total_dim,) * 2) + 1j * rng.normal(size=(scn.total_dim,) * 2)
        m = Measurement(scn.times[1 + pick % (len(scn.times) - 1)], MatrixObservable(h + h.conj().T))
    copied = replace(scn, observers=(*scn.observers, ObserverSpec("c1", (m,)), ObserverSpec("c2", (m,))))
    outcomes = []
    for route in (copied, parse_scenario(serialize_scenario(copied))):
        try:
            outcomes.append(_resolved(route))
        except QHistError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], list):
        n_slots = len(scn.times) - 1
        slot = len(outcomes[0]) - n_slots + scn.times.index(m.time) - 1  # c2's
        assert outcomes[0][slot][2] == outcomes[0][slot - n_slots][2]  # c1's decomposition


def test_observables_share_a_decomposition_only_when_their_labels_and_bytes_are_equal():
    h = np.random.default_rng(5).normal(size=(4, 4)) + 1j * np.random.default_rng(6).normal(size=(4, 4))
    h = h + h.conj().T
    low = np.diag([1, 1, 0, 0]).astype(complex)
    cases = [
        (MatrixObservable(h), MatrixObservable(h.copy()), True),
        (MatrixObservable(h), MatrixObservable(h.T.copy()), False),
        (MatrixObservable(low), MatrixObservable(low.real.copy()), False),  # float64: another dtype
        (ProjectorListObservable(("a",), (low,)), ProjectorListObservable(["a"], low[None].copy()), True),
        (ProjectorListObservable(("a",), (low,)), ProjectorListObservable(("b",), (low,)), False),
    ]
    for first, second, shared in cases:
        scn = scenario((2, 2), ["identity"], [observer("A", {"t1": first}), observer("B", {"t1": second})])
        (a,), (b,) = (r.family.slot_decompositions for r in resolve(scn))
        assert (a is b) == shared


def test_non_unitary_evolution_raises():
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    scn = scenario((2,), [shear], [observer("A", {"t1": NamedObservable("sigma_z")})])
    with pytest.raises(NotUnitaryError):
        resolve(scn)


def test_non_unitary_evolution_names_its_path():
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    scn = scenario((2,), ["identity", shear], [observer("A", {"t1": NamedObservable("sigma_z")})])
    with pytest.raises(NotUnitaryError, match=r"^\$\.evolutions\[1\]\.matrix: evolution 1 \(t1 -> t2\)"):
        resolve(scn)


def test_an_evolution_matrix_held_by_several_intervals_is_checked_once(monkeypatch):
    # before, evolutions were keyed by interval, so CNOT was checked 3 times
    calls = []
    original = qhist.histories.is_unitary
    monkeypatch.setattr(qhist.histories, "is_unitary", lambda *args: calls.append(1) or original(*args))
    scn = scenario((2, 2), [CNOT, CNOT.copy(), CNOT], [observer("A", {"t1": NamedObservable("sigma_z@1")})])
    (record,) = resolve(scn)
    assert len(calls) == 1
    unitaries = [ev.unitary for ev in record.family.evolutions]
    assert all(u is unitaries[0] for u in unitaries) and not unitaries[0].flags.writeable
    # a matrix of another dtype is another key
    calls.clear()
    resolve(replace(scn, evolutions=(CNOT, CNOT.real.copy(), CNOT)))
    assert len(calls) == 2


def test_a_shared_non_unitary_evolution_is_reported_at_its_first_interval():
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    scn = scenario((2,), ["identity", shear, shear.copy()], [observer("A", {"t1": NamedObservable("sigma_z")})])
    with pytest.raises(NotUnitaryError) as excinfo:
        resolve(scn)
    assert str(excinfo.value) == "$.evolutions[1].matrix: evolution 1 (t1 -> t2) is not unitary"


def test_an_initial_state_list_changed_after_the_build_changes_nothing_built():
    # before, the build kept the list it was given: appending to it resolved
    # a family of dim 3 with 2x2 unitaries and projectors
    vector = [1.0, 0.0]
    scn = Scenario("v", (2,), vector, ("t0", "t1"), ("identity",),
                   (observer("A", {"t1": NamedObservable("sigma_z")}),))
    vector.append(0.0)
    vector[0] = 0.5
    (record,) = resolve(scn)
    assert record.family.dim == 2
    assert record.family.initial_ket.tobytes() == np.array([1, 0], dtype=complex).tobytes()
    assert isinstance(scn.initial_state, np.ndarray) and not scn.initial_state.flags.writeable
    assert scn == replace(scn, initial_state=np.array([1, 0], dtype=complex))


def test_a_list_matrix_made_ragged_after_the_build_is_refused_at_its_measurement():
    # the build keeps a matrix observable's list as given, so resolve's
    # content key is the first to read it again
    matrix = [[1, 0], [0, -1]]
    scn = Scenario("v", (2,), ("up_z",), ("t0", "t1"), ("identity",),
                   (observer("A", {"t1": MatrixObservable(matrix)}),))
    matrix[1].pop()
    with pytest.raises(ValueError) as excinfo:
        resolve(scn)
    assert str(excinfo.value).startswith("$.observers[0].measurements[0].observable: ")


def test_evolution_count_must_match_the_grid():
    scn = scenario((2,), ["identity"], [observer("A", {"t1": NamedObservable("sigma_z")})])
    with pytest.raises(DimMismatchError, match=r"^\$\.evolutions: expected 2 evolutions, got 1"):
        resolve(replace(scn, times=("t0", "t1", "t2")))


def test_non_orthogonal_projector_list_raises():
    plus = np.full((2, 2), 0.5, dtype=complex)
    up = np.diag([1, 0]).astype(complex)
    bad = ProjectorListObservable(("+x", "up"), (plus, up))
    scn = scenario((2,), ["identity"], [observer("A", {"t1": bad})])
    with pytest.raises(BadDecompositionError):
        resolve(scn)


def test_an_empty_projector_list_is_refused_with_its_path():
    # before, resolve refused a hand-built one as a BadDecompositionError
    # caused by a NotCompleteError, at the observable's path
    empty = (observer("A", {"t1": ProjectorListObservable((), ())}),)
    assert _refusals(scenario((2,), ["identity"], []), observers=empty) == [
        (ScenarioError, "$.observers[0].measurements[0].observable.projectors: projector list must be nonempty")
    ] * 3


def test_decomposition_error_names_the_first_measurement_using_it():
    bad = MatrixObservable(np.array([[0, 1], [0, 0]], dtype=complex))
    scn = scenario(
        (2,),
        ["identity", "identity"],
        [observer("A", {"t1": NamedObservable("sigma_z")}), observer("B", {"t1": bad, "t2": bad})],
    )
    with pytest.raises(NotHermitianError, match=r"^\$\.observers\[1\]\.measurements\[0\]\.observable: "):
        resolve(scn)


# faulty observables on one qubit: two that fail validation, and one whose
# eigenprojectors cannot be built
PLUS = np.full((2, 2), 0.5, dtype=complex)
UP = np.diag([1, 0]).astype(complex)
FAULTY = {
    "not_orthogonal": ProjectorListObservable(("+x", "up"), (PLUS, UP)),
    "not_a_projector": ProjectorListObservable(("half",), (0.5 * identity(2),)),
    "not_hermitian": MatrixObservable(np.array([[0, 1], [0, 0]], dtype=complex)),
}


def _error(scn, **kwargs) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        resolve(scn, **kwargs)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("first, second", list(itertools.permutations(FAULTY, 2)))
def test_the_first_fault_in_observer_order_is_reported(first, second):
    """With two faulty observables, the error is the one the first alone raises."""
    a = observer("A", {"t1": NamedObservable("sigma_z"), "t2": FAULTY[first]})
    b = observer("B", {"t1": FAULTY[second]})
    both = _error(scenario((2,), ["identity", "identity"], [a, b]))
    alone = _error(scenario((2,), ["identity", "identity"], [a]))
    assert both == alone
    assert both[1].startswith("$.observers[0].measurements[1].observable: ")
    assert (both[0] is BadDecompositionError) == (first != "not_hermitian")


@pytest.mark.parametrize("fault", list(FAULTY))
def test_a_history_cap_before_a_fault_is_reported_first(fault):
    capped = observer("A", {"t1": NamedObservable("sigma_z"), "t2": NamedObservable("sigma_x")})
    faulty = observer("B", {"t1": FAULTY[fault]})
    scn = scenario((2,), ["identity", "identity"], [capped, faulty])
    assert _error(scn, max_histories=3)[0] is HistoryLimitError
    assert _error(replace(scn, observers=(faulty, capped)), max_histories=3) == _error(
        replace(scn, observers=(faulty,))
    )


@pytest.mark.parametrize("fault", list(FAULTY))
def test_a_history_cap_before_a_fault_leaves_no_cyclic_garbage(fault):
    # before, a later measurement's build error was caught and held while the
    # cap was raised, and its traceback held resolve's frame, which held it
    capped = observer("A", {"t1": NamedObservable("sigma_z"), "t2": NamedObservable("sigma_x")})
    scn = scenario((2,), ["identity", "identity"], [capped, observer("B", {"t1": FAULTY[fault]})])

    def caught():
        with pytest.raises(HistoryLimitError):
            resolve(scn, max_histories=3)

    gc.disable()
    try:
        gc.collect()
        caught()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_threshold_scales_with_a_diagonal_above_one():
    # a unitary accepted within the file's herm tolerance lets P(+z) exceed 1
    near = [[[1 + 1e-6, 0], [0, 0]], [[0, 0], [1, 0]]]
    doc = {
        "format": 1,
        "name": "near_unitary",
        "systems": [2],
        "initial_state": "up_z",
        "times": ["t0", "t1"],
        "evolutions": [{"matrix": near}],
        "observers": [{"name": "A", "measurements": [{"time": "t1", "observable": "sigma_z"}]}],
        "tolerance": {"herm": 1e-4},
    }
    scn = parse_scenario(json.dumps(doc))
    tol = effective_tolerance(scn)
    (record,) = resolve(scn)
    report = consistency_check(record.family, tol)
    top = float(np.max(report.probabilities))
    assert top == pytest.approx(1.000002, abs=1e-12)
    assert report.threshold == tol.cons * top
    assert report.threshold > tol.cons


# ---------------------------------------------------------------------------
# resolving only the observers named


def _records(records) -> list[tuple]:
    """Each record's name, ket, unitaries, labels and projectors, as bytes."""
    return [
        (
            r.name,
            r.family.initial_ket.tobytes(),
            tuple(ev.unitary.tobytes() for ev in r.family.evolutions),
            tuple((d.labels, d.projectors.tobytes()) for d in r.family.slot_decompositions),
        )
        for r in records
    ]


def _outcome(scn, tol, observers=None) -> list[tuple] | tuple[type, str]:
    """The records' bytes, or the type and message of the error raised."""
    try:
        return _records(resolve(scn, tol, observers=observers))
    except Exception as exc:  # noqa: BLE001 - compared, never hidden
        return type(exc), str(exc)


def _without_unread_matrices(scn: Scenario, names) -> Scenario:
    """``scn`` with each matrix observable of an observer outside ``names``
    measured as the identity instead, at the same measurement index."""

    def masked(obs):
        if obs.name in names:
            return obs
        return replace(obs, measurements=tuple(
            replace(m, observable=NamedObservable("identity")) if isinstance(m.observable, MatrixObservable) else m
            for m in obs.measurements
        ))

    return replace(scn, observers=tuple(map(masked, scn.observers)))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_a_selective_resolve_agrees_with_the_full_one(seed):
    """For every nonempty subset of observers, at the file's tolerance and
    at 0: when the full resolve succeeds, the selective one returns the same
    records of the subset, in scenario order, bit for bit.  When the
    selective one raises, the full one raises the same error, unless the
    full one first met an eigenprojector fault of a matrix only an unread
    observer measures, which the selective resolve never decomposes.  In
    every case the selective resolve does what the full resolve does with
    the unread observers' matrices measured as the identity (random
    matrices are exactly Hermitian, so their checks pass)."""
    scn = random_scenario(np.random.default_rng(seed))
    names = [obs.name for obs in scn.observers]
    for tol in (None, Tolerance.uniform(0.0)):
        full = _outcome(scn, tol)
        for size in range(1, len(names) + 1):
            for subset in itertools.combinations(names, size):
                selective = _outcome(scn, tol, subset)
                expected = _outcome(_without_unread_matrices(scn, subset), tol)
                if isinstance(expected, list):
                    expected = [r for r in expected if r[0] in subset]
                assert selective == expected, (subset, tol)
                if isinstance(full, list):
                    assert selective == [r for r in full if r[0] in subset], (subset, tol)
                elif not isinstance(selective, list) and selective != full:
                    i, j = map(int, re.match(r"\$\.observers\[(\d+)\]\.measurements\[(\d+)\]", full[1]).groups())
                    assert names[i] not in subset
                    assert isinstance(scn.observers[i].measurements[j].observable, MatrixObservable)
                    assert full[0] in (NotAProjectorError, NotOrthogonalError, NotCompleteError)


def test_records_come_in_scenario_order_and_unknown_names_are_ignored():
    records = resolve(four_observers(), observers=["C", "nobody", "A"])
    assert [r.name for r in records] == ["A", "C"]
    assert resolve(four_observers(), observers=[]) == []


def _count_eigenprojectors(monkeypatch) -> list:
    calls = []
    original = qhist.framework.hermitian_eigenprojectors

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(qhist.framework, "hermitian_eigenprojectors", counted)
    return calls


def test_nothing_is_built_after_the_first_faulty_measurement(monkeypatch):
    # before, the projector list's fault was found only after the matrix
    # measured at t2 had been eigendecomposed
    calls = _count_eigenprojectors(monkeypatch)
    a = observer("A", {"t1": FAULTY["not_a_projector"], "t2": MatrixObservable(SIGMA_X.copy())})
    assert _error(scenario((2,), ["identity", "identity"], [a])) == (
        BadDecompositionError,
        "$.observers[0].measurements[0].observable: slot is not a valid decomposition: "
        "element 0 ('half') is not a projector",
    )
    assert calls == []


def test_a_matrix_no_named_observer_measures_is_not_decomposed(monkeypatch):
    calls = _count_eigenprojectors(monkeypatch)
    resolve(four_observers(), observers=["A", "C"])  # B and D measure the matrix
    assert calls == []
    resolve(four_observers(), observers=["D"])
    assert calls == [1]


@pytest.mark.parametrize("fault", list(FAULTY))
@pytest.mark.parametrize("names", [None, ["A"], ["C"], ["A", "C"]])
def test_every_observers_input_is_checked_whoever_is_named(fault, names):
    a = observer("A", {"t1": NamedObservable("sigma_z")})
    b = observer("B", {"t1": NamedObservable("sigma_x"), "t2": FAULTY[fault]})
    c = observer("C", {"t2": NamedObservable("sigma_x")})
    scn = scenario((2,), ["identity", "identity"], [a, b, c])
    error = _error(scn, observers=names)
    assert error == _error(scn)
    assert error[1].startswith("$.observers[1].measurements[1].observable: ")


def test_an_unread_observers_eigenprojectors_are_not_validated():
    # under tolerance 0 sigma_x's eigenprojectors, from eigh, are not exactly idempotent
    a = observer("A", {"t1": NamedObservable("sigma_z")})
    b = observer("B", {"t1": MatrixObservable(SIGMA_X.copy())})
    scn = scenario((2,), ["identity"], [a, b])
    exact = Tolerance.uniform(0.0)
    assert _error(scn, tol=exact) == (
        NotAProjectorError, "$.observers[1].measurements[0].observable: element 0 ('ev0=-1') is not a projector"
    )
    assert _error(scn, tol=exact, observers=["B"]) == _error(scn, tol=exact)
    assert [r.name for r in resolve(scn, exact, observers=["A"])] == ["A"]


def test_a_shared_matrix_is_decomposed_at_its_first_named_use_as_built_and_read_back():
    # before, when only C was named, B's and C's one object failed at B's
    # path, and its document's two equal copies at C's
    x = MatrixObservable(SIGMA_X.copy())
    a = observer("A", {"t1": NamedObservable("sigma_z")})
    scn = scenario((2,), ["identity"], [a, observer("B", {"t1": x}), observer("C", {"t1": x})])
    exact = Tolerance.uniform(0.0)
    fault = "measurements[0].observable: element 0 ('ev0=-1') is not a projector"
    for route in (scn, parse_scenario(serialize_scenario(scn))):
        assert _error(route, tol=exact, observers=["C"]) == (NotAProjectorError, f"$.observers[2].{fault}")
        assert _error(route, tol=exact) == (NotAProjectorError, f"$.observers[1].{fault}")
        assert [r.name for r in resolve(route, exact, observers=["A"])] == ["A"]


def test_the_history_cap_counts_only_the_families_built():
    capped = observer("A", {"t1": NamedObservable("sigma_z"), "t2": NamedObservable("sigma_x")})
    small = observer("B", {"t1": NamedObservable("sigma_z")})
    scn = scenario((2,), ["identity", "identity"], [capped, small])
    assert _error(scn, max_histories=3)[0] is HistoryLimitError
    assert _error(scn, max_histories=3, observers=["A"])[0] is HistoryLimitError
    (record,) = resolve(scn, max_histories=3, observers=["B"])
    assert record.family.n_histories == 2


def _list_observers(first: tuple[str, str], second: tuple[str, str]) -> tuple[ObserverSpec, ObserverSpec]:
    """O1 measures the first of two qubits' z and O2 the second's, each as a
    hand-built list of two diagonal projectors labelled ``first`` and ``second``."""
    o1 = ProjectorListObservable(first, (np.diag([1, 1, 0, 0]) + 0j, np.diag([0, 0, 1, 1]) + 0j))
    o2 = ProjectorListObservable(second, (np.diag([1, 0, 1, 0]) + 0j, np.diag([0, 1, 0, 1]) + 0j))
    return observer("O1", {"t1": o1}), observer("O2", {"t1": o2})


def _two_lists(first: tuple[str, str], second: tuple[str, str]) -> Scenario:
    """Two qubits from plus_x, plus_x, and ``_list_observers``."""
    scn = scenario((2, 2), ["identity"], _list_observers(first, second))
    return replace(scn, initial_state=("plus_x", "plus_x"))


def test_hand_built_plain_labels_are_stable():
    a, b = resolve(_two_lists(("p", "s"), ("u", "r")))
    assert check_compatibility(a, b).verdict is Verdict.STABLE


@pytest.mark.parametrize("route", ROUTES)
def test_hand_built_joiner_labels_are_refused(route):
    # before the check, products p∧q∧r were formed twice, and the pair read
    # relative (condition 2); before construction checked the labels, resolve
    # refused them as a BadDecompositionError at the observable's path
    valid = _two_lists(("p", "s"), ("u", "r"))
    joined = _list_observers(("p", "p∧q"), ("q∧r", "r"))
    assert _refusal(route, valid, observers=joined) == (
        ScenarioError, "$.observers[0].measurements[0].observable.projectors[1].label: "
                       "label 'p∧q' contains the joiner '∧'")
    joined = _list_observers(("p", "s"), ("u", "r∨s"))
    assert _refusal(route, valid, observers=joined) == (
        ScenarioError, "$.observers[1].measurements[0].observable.projectors[1].label: "
                       "label 'r∨s' contains the joiner '∨'")


@pytest.mark.parametrize(
    "name", ["sigma_q", "foo@1", "Sigma_z", "sigma_z@²", "sigma_z@x", "sigma_z@0", "sigma_z@5", "identity@9"]
)
@pytest.mark.parametrize("route", ROUTES)
def test_hand_built_unknown_operators_are_refused_as_parse_scenario_refuses_them(name, route):
    # before, resolve let out a bare KeyError or int()'s ValueError, named a
    # shape misfit, or (identity@9) accepted the name
    a = observer("A", {"t1": NamedObservable("sigma_z")})
    base = scenario((2,), ["identity"], [a])
    faulty = (a, observer("B", {"t1": NamedObservable(name)}))
    with pytest.raises(UnknownOperatorError) as info:
        ROUTES[route](base, {"observers": faulty})
    assert (UnknownOperatorError, str(info.value)) == _refusal("parse", base, observers=faulty)
    assert str(info.value).startswith("$.observers[1].measurements[0].observable: ")
    assert info.value.path == "$.observers[1].measurements[0].observable"


ONE_QUBIT = scenario((2,), ["identity"], [observer("O1", {"t1": NamedObservable("sigma_x")})])


@pytest.mark.parametrize(
    "time, message",
    [("t9", "time 't9' is not on the grid"),
     ("t0", "measurements at the initial time are not allowed; t0 carries the initial state")],
)
def test_a_hand_built_measurement_off_the_slots_is_refused_as_parse_scenario_refuses_it(time, message):
    # before, resolve dropped it, and the slot at t1 was the trivial "any" with P = 1
    off = (observer("O1", {time: NamedObservable("sigma_x")}),)
    assert _refusals(ONE_QUBIT, observers=off) == [
        (ScenarioError, f"$.observers[0].measurements[0].time: {message}")
    ] * 3


def test_a_hand_built_second_measurement_at_one_time_is_refused_as_parse_scenario_refuses_it():
    # before, resolve dropped the first
    twice = ObserverSpec("O1", tuple(Measurement("t1", NamedObservable(n)) for n in ("sigma_x", "sigma_z")))
    assert _refusals(ONE_QUBIT, observers=(twice,)) == [
        (ScenarioError, "$.observers[0].measurements[1].time: observer 'O1' measures twice at 't1'")
    ] * 3


def test_a_hand_built_evolution_name_is_refused_as_parse_scenario_refuses_it():
    # before, resolve ran "foo" as the identity
    assert _refusals(ONE_QUBIT, evolutions=("foo",)) == [
        (ScenarioError, "$.evolutions[0]: expected 'identity' or {'matrix': ...}")
    ] * 3


@pytest.mark.parametrize(
    "state, message",
    [(("up_z", "up_z"), "$.initial_state: 2 presets for 1 factors"),
     (np.array([1, 0, 0], dtype=complex), "$.initial_state.vector: shape (3,) does not match total dim 2")],
    ids=["presets", "vector"],
)
def test_a_hand_built_initial_state_of_another_size_is_refused_as_parse_scenario_refuses_it(state, message):
    # before, resolve passed it, and consistency_check failed in numpy's reshape
    assert _refusals(ONE_QUBIT, initial_state=state) == [(DimMismatchError, message)] * 3


def test_a_hand_built_unknown_preset_is_refused_as_parse_scenario_refuses_it():
    # before, resolve let out a bare KeyError
    assert _refusals(ONE_QUBIT, initial_state=("bogus",)) == [
        (UnknownOperatorError, "$.initial_state[0]: unknown state preset 'bogus'")
    ] * 3


def test_a_hand_built_scenario_without_presets_is_refused_as_its_document_is():
    # before, it was built, resolve refused it, and serialize_scenario raised
    # a bare IndexError, since its document could not be written
    error = (DimMismatchError, "$.initial_state: 0 presets for 1 factors")
    assert [_refusal(route, ONE_QUBIT, initial_state=()) for route in ("build", "replace")] == [error] * 2
    with pytest.raises(DimMismatchError) as info:
        parse_scenario(json.dumps({**ONE_QUBIT.to_jsonable(), "initial_state": []}))
    assert str(info.value) == error[1]


@pytest.mark.parametrize("labels, n_matrices", [(("a", "b"), 1), (("a",), 2), ((), 1)], ids=["fewer", "more", "none"])
@pytest.mark.parametrize("route", ["build", "replace"])
def test_a_hand_built_projector_list_needs_one_matrix_per_label(labels, n_matrices, route):
    # before, it was built, serialize_scenario wrote only the labels that had
    # a matrix, and resolve refused it as "2 projectors but 3 labels"; no
    # document can hold this fault
    spec = ProjectorListObservable(labels, (np.diag([1, 0]).astype(complex),) * n_matrices)
    assert _refusal(route, ONE_QUBIT, observers=(observer("O1", {"t1": spec}),)) == (
        ScenarioError,
        f"$.observers[0].measurements[0].observable.projectors: {len(labels)} labels for {n_matrices} matrices",
    )


def test_the_tolerance_range_is_stated_once(monkeypatch):
    # before, linalg.Tolerance and scenario._check_tolerance each wrote [0, 1e-3]
    document = {**ONE_QUBIT.to_jsonable(), "tolerance": {"cons": 1.0}}
    with pytest.raises(ValueError) as option:
        Tolerance.uniform(1.0)
    with pytest.raises(ScenarioError) as file:
        parse_scenario(json.dumps(document))
    assert str(option.value) == "tolerance 'norm' must lie in [0, 1e-3], got 1.0"
    assert str(file.value) == "$.tolerance.cons: tolerance must be a number in [0, 1e-3]"
    document["tolerance"]["cons"] = 1e-4
    assert effective_tolerance(parse_scenario(json.dumps(document))).cons == Tolerance.uniform(1e-4).cons == 1e-4
    monkeypatch.setattr(Tolerance, "admits", staticmethod(lambda value: 0.0 <= value <= 1e-6))
    with pytest.raises(ValueError, match="got 0.0001$"):
        Tolerance.uniform(1e-4)
    with pytest.raises(ScenarioError, match=r"^\$\.tolerance\.cons: "):
        parse_scenario(json.dumps(document))


@pytest.mark.parametrize(
    "names, message",
    [(("O1", "O1"), "$.observers[1].name: duplicate observer name 'O1'"),
     (("combined",), "$.observers[0].name: observer name 'combined' is reserved")],
    ids=["repeated", "reserved"],
)
def test_hand_built_observer_names_are_refused_as_parse_scenario_refuses_them(names, message):
    # before, resolve accepted both
    observers = tuple(observer(name, {"t1": NamedObservable("sigma_x")}) for name in names)
    assert _refusals(ONE_QUBIT, observers=observers) == [(ScenarioError, message)] * 3


def test_a_hand_built_matrix_observable_of_another_size_is_refused_as_parse_scenario_refuses_it():
    # before, resolve built the 3 x 3 matrix's eigenprojectors into a qubit's family
    observers = (observer("O1", {"t1": MatrixObservable(identity(3))}),)
    path = "$.observers[0].measurements[0].observable.matrix"
    assert _refusals(ONE_QUBIT, observers=observers) == [
        (DimMismatchError, f"{path}: shape (3, 3) does not match total dim 2")
    ] * 3


@pytest.mark.parametrize(
    "change, error, message",
    [({"subsystem_dims": (2, 0)}, ScenarioError, "$.systems[1]: factor dimension must be a positive integer"),
     ({"subsystem_dims": (2, 64)}, DimMismatchError, "$.systems: total dim 128 exceeds cap 64"),
     ({"tolerance_overrides": {"cons": 1.0}}, ScenarioError,
      "$.tolerance.cons: tolerance must be a number in [0, 1e-3]"),
     ({"tolerance_overrides": {"eps": 1e-9}}, UnknownFieldError, "$.tolerance.eps: unknown field 'eps'"),
     ({"times": ("t0",)}, ScenarioError, "$.times: need at least two times (t0 plus one slot)"),
     ({"times": ("t0", "t0")}, ScenarioError, "$.times: time labels must be unique"),
     ({"evolutions": ()}, DimMismatchError, "$.evolutions: expected 1 evolutions, got 0"),
     ({"evolutions": (identity(3),)}, DimMismatchError,
      "$.evolutions[0].matrix: shape (3, 3) does not match total dim 2"),
     ({"observers": (observer("O1", {"t1": ProjectorListObservable(("a", "b"), (UP, identity(3)))}),)},
      DimMismatchError,
      "$.observers[0].measurements[0].observable.projectors[1].matrix: shape (3, 3) does not match total dim 2")],
    ids=["factor", "cap", "tolerance_value", "tolerance_key", "one_time", "repeated_time", "evolution_count",
         "evolution_shape", "projector_shape"],
)
def test_the_other_structural_checks_of_a_hand_built_scenario_are_parse_scenarios(change, error, message):
    assert _refusals(ONE_QUBIT, **change) == [(error, message)] * 3


STRUCTURAL_FAULTS = (
    None, "off_grid", "initial_time", "twice", "operator", "matrix_shape", "evolution_name", "evolution_shape",
    "evolution_count", "presets", "preset_name", "vector", "observer_twice", "reserved", "factor", "cap",
    "tolerance_value", "tolerance_key", "one_time", "repeated_time", "name", "label",
)
NOT_STRINGS = (5, None, True, 1.5, ["a"])


def _fault(scn: Scenario, fault: str | None, k: int) -> dict:
    """The fields of ``scn`` to change for at most one structural fault, ``k``
    choosing among its forms."""
    first, times, dims = scn.observers[0], scn.times, scn.subsystem_dims

    def first_measuring(*extra: Measurement) -> dict:
        changed = ObserverSpec(first.name, first.measurements + extra)
        return {"observers": (changed, *scn.observers[1:])}

    if fault is None:
        return {}
    if fault in ("off_grid", "initial_time", "twice"):
        at = {"off_grid": ["t9"], "initial_time": [times[0]], "twice": [times[-1]] * 2}[fault]
        return first_measuring(*(Measurement(t, NamedObservable("identity")) for t in at))
    if fault in ("operator", "matrix_shape", "label"):
        if fault == "label":  # the faulty label first or second of two
            labels = ("a", NOT_STRINGS[k % 5]) if k % 2 else (NOT_STRINGS[k % 5], "a")
            spec = ProjectorListObservable(labels, (identity(scn.total_dim),) * 2)
        else:
            spec = NamedObservable("sigma_q") if fault == "operator" else MatrixObservable(identity(scn.total_dim + 1))
        changed = ObserverSpec(first.name, (Measurement(times[1], spec),))
        return {"observers": (changed, *scn.observers[1:])}
    if fault == "name":
        return {"name": NOT_STRINGS[k % 5]}
    if fault in ("evolution_name", "evolution_shape"):
        evolutions = list(scn.evolutions)
        wrong = ("foo", "Identity", "")[k % 3] if fault == "evolution_name" else identity(scn.total_dim + 1)
        evolutions[k % len(evolutions)] = wrong
        return {"evolutions": tuple(evolutions)}
    if fault == "evolution_count":
        return {"evolutions": scn.evolutions + ("identity",) if k % 2 else scn.evolutions[:-1]}
    if fault == "presets":
        return {"initial_state": ("up_z",) * (len(dims) + 1 + k % 2)}
    if fault == "preset_name":
        return {"initial_state": ("up_z",) * (len(dims) - 1) + ("bogus",)}
    if fault == "vector":
        return {"initial_state": np.ones(scn.total_dim + 1 + k % 3, dtype=complex)}
    if fault in ("observer_twice", "reserved"):
        name = first.name if fault == "observer_twice" else "combined"
        return {"observers": scn.observers + (ObserverSpec(name, ()),)}
    if fault == "factor":
        return {"subsystem_dims": dims + ((0, -1, True, 2.0)[k % 4],)}
    if fault == "cap":
        return {"subsystem_dims": dims + (64,)}
    if fault == "tolerance_value":
        key = fields(Tolerance)[k % len(fields(Tolerance))].name
        value = (1.0, -1e-9, "small", True, float("nan"))[k % 5]
        return {"tolerance_overrides": {**scn.tolerance_overrides, key: value}}
    if fault == "tolerance_key":
        return {"tolerance_overrides": {**scn.tolerance_overrides, "eps": 1e-9}}
    if fault == "one_time":
        return {"times": times[:1]}
    return {"times": times + (times[k % len(times)],)}  # repeated_time


@given(st.integers(0, 2**32 - 1), st.sampled_from(STRUCTURAL_FAULTS), st.integers(0, 59))
@settings(max_examples=200, deadline=None)
def test_parse_scenario_is_the_constructors_reference_for_a_hand_built_scenario(seed, fault, k):
    """A hand-built scenario with a structural fault cannot be built: building
    it, or ``replace`` on the valid one, raises what ``parse_scenario``
    raises for its document (written around the checks, ``_unchecked``).
    Without a fault, the scenario's document reads back as the scenario,
    which resolves."""
    scn = random_scenario(np.random.default_rng(seed))
    change = _fault(scn, fault, k)
    if fault is None:
        assert parse_scenario(serialize_scenario(scn)) == scn
        resolve(scn)
    else:
        errors = _refusals(scn, **change)
        assert errors == [errors[0]] * len(ROUTES)


# the structural checks that building a Scenario applies, and the number of
# items each checks in ``scn``
STRUCTURAL_CHECKS = {
    "_check_dims": lambda scn: 1,
    "_check_tolerance": lambda scn: 1,
    "_check_presets": lambda scn: int(isinstance(scn.initial_state, tuple)),
    "_check_times": lambda scn: 1,
    "_check_evolution_count": lambda scn: 1,
    "_evolution_name": lambda scn: sum(isinstance(ev, str) for ev in scn.evolutions),
    "_check_observer_name": lambda scn: len(scn.observers),
    "_check_time": lambda scn: sum(len(obs.measurements) for obs in scn.observers),
    "_check_operator": lambda scn: sum(isinstance(m.observable, NamedObservable)
                                       for obs in scn.observers for m in obs.measurements),
    "_check_shape": lambda scn: (
        (not isinstance(scn.initial_state, tuple)) + sum(not isinstance(ev, str) for ev in scn.evolutions)
        + sum(len(m.observable.matrices) if isinstance(m.observable, ProjectorListObservable)
              else isinstance(m.observable, MatrixObservable) for obs in scn.observers for m in obs.measurements)
    ),
}


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_a_command_checks_each_item_of_the_structure_once(name, monkeypatch, capsys):
    # before, parse_scenario and resolve each applied every check
    path = gallery(name)
    expected = {check: count(parse_scenario(path.read_bytes())) for check, count in STRUCTURAL_CHECKS.items()}
    calls = dict.fromkeys(STRUCTURAL_CHECKS, 0)

    def counted(check):
        original = getattr(qhist.scenario, check)

        def wrapper(*args, **kwargs):
            calls[check] += 1
            return original(*args, **kwargs)

        return wrapper

    for check in STRUCTURAL_CHECKS:
        monkeypatch.setattr(qhist.scenario, check, counted(check))
    cli.main(["analyze", str(path)])
    capsys.readouterr()
    assert calls == expected
    assert name != "stable_facts" or expected == {
        "_check_dims": 1, "_check_tolerance": 1, "_check_presets": 1, "_check_times": 1, "_check_evolution_count": 1,
        "_evolution_name": 2, "_check_observer_name": 2, "_check_time": 4, "_check_operator": 4, "_check_shape": 0,
    }
