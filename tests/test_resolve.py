"""``scenario.resolve``: embedded projectors, one decomposition per distinct
measurement within a call, evolutions checked once, and unchanged errors."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhist.histories
from qhist.errors import BadDecompositionError, NotUnitaryError
from qhist.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, identity
from qhist.scenario import (
    Measurement,
    MatrixObservable,
    NamedObservable,
    ObserverSpec,
    ProjectorListObservable,
    Scenario,
    resolve,
)

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
    calls = {"make_decomposition": 0, "is_unitary": 0}

    def counted(name):
        original = getattr(qhist.histories, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(qhist.histories, name, wrapper)

    counted("make_decomposition")
    counted("is_unitary")
    records = resolve(four_observers())
    # trivial/identity, sigma_z@1, sigma_x@2, the matrix and the projector list
    assert calls == {"make_decomposition": 5, "is_unitary": 3}
    a, b, c, d = (r.family.slot_decompositions for r in records)
    assert a[0] is b[0] and a[2] is c[2] and b[1] is d[1]
    assert a[1] is d[0] is d[2]


def test_separate_calls_share_no_decomposition():
    scn = four_observers()
    first, second = resolve(scn), resolve(scn)
    ids = [{id(d) for r in records for d in r.family.slot_decompositions} for records in (first, second)]
    assert ids[0].isdisjoint(ids[1])


def test_non_unitary_evolution_raises():
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    scn = scenario((2,), [shear], [observer("A", {"t1": NamedObservable("sigma_z")})])
    with pytest.raises(NotUnitaryError):
        resolve(scn)


def test_non_orthogonal_projector_list_raises():
    plus = np.full((2, 2), 0.5, dtype=complex)
    up = np.diag([1, 0]).astype(complex)
    bad = ProjectorListObservable(("+x", "up"), (plus, up))
    scn = scenario((2,), ["identity"], [observer("A", {"t1": bad})])
    with pytest.raises(BadDecompositionError):
        resolve(scn)
