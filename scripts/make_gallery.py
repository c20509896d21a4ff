"""Regenerate the shipped scenario gallery in canonical serialized form.

Run from the repository root:  python3 scripts/make_gallery.py
"""

from __future__ import annotations

import pathlib

import numpy as np

from qhist.scenario import (
    Measurement,
    NamedObservable,
    ObserverSpec,
    ProjectorListObservable,
    Scenario,
    parse_scenario,
    resolve,
    serialize_scenario,
)

OUT = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

GRID = ("t0", "t1", "t2")


def named(name: str) -> NamedObservable:
    return NamedObservable(name=name)


def measure(time: str, observable) -> Measurement:
    return Measurement(time=time, observable=observable)


def repeated_x() -> Scenario:
    return Scenario(
        name="repeated_x",
        subsystem_dims=(2,),
        initial_state=("up_z",),
        times=GRID,
        evolutions=("identity", "identity"),
        observers=(
            ObserverSpec(
                name="O1",
                measurements=(measure("t1", named("sigma_x")), measure("t2", named("sigma_x"))),
            ),
        ),
    )


def zxz_inconsistent() -> Scenario:
    return Scenario(
        name="zxz_inconsistent",
        subsystem_dims=(2,),
        initial_state=("up_z",),
        times=GRID,
        evolutions=("identity", "identity"),
        observers=(
            ObserverSpec(
                name="O1",
                measurements=(measure("t1", named("sigma_x")), measure("t2", named("sigma_z"))),
            ),
        ),
    )


def _two_observer(name: str, o2_t1: str) -> Scenario:
    # Shared x-spin measurement at t1 (or sigma_y for the relative case); at t2
    # the observers probe commuting observables on distinct qubits.  The
    # initial state is an x-eigenstate on qubit 1 so each observer's own
    # family is consistent.
    return Scenario(
        name=name,
        subsystem_dims=(2, 2),
        initial_state=("plus_x", "up_z"),
        times=GRID,
        evolutions=("identity", "identity"),
        observers=(
            ObserverSpec(
                name="O1",
                measurements=(measure("t1", named("sigma_x@1")), measure("t2", named("sigma_z@1"))),
            ),
            ObserverSpec(
                name="O2",
                measurements=(measure("t1", named(o2_t1)), measure("t2", named("sigma_x@2"))),
            ),
        ),
    )


def stable_facts() -> Scenario:
    return _two_observer("stable_facts", "sigma_x@1")


def relative_facts() -> Scenario:
    return _two_observer("relative_facts", "sigma_y@1")


def _measurement_pieces(n: int = 2):
    """System dim n, detector dim n+1; U permutes M0 <-> Mi conditioned on s_i."""
    ddet = n + 1
    dtot = n * ddet
    sys_basis = [np.eye(n, dtype=complex)[:, i] for i in range(n)]
    det_basis = [np.eye(ddet, dtype=complex)[:, i] for i in range(ddet)]
    U = np.zeros((dtot, dtot), dtype=complex)
    for i in range(n):
        V = np.eye(ddet, dtype=complex)
        V[[0, i + 1]] = V[[i + 1, 0]]
        U += np.kron(np.outer(sys_basis[i], sys_basis[i].conj()), V)
    phi0 = sum(sys_basis) / np.sqrt(n)
    ket0 = np.kron(phi0, det_basis[0])

    def proj(v):
        return np.outer(v, v.conj())

    s_slot = ProjectorListObservable(
        labels=tuple(f"s{i + 1}" for i in range(n)),
        matrices=tuple(np.kron(proj(sys_basis[i]), proj(det_basis[0])) for i in range(n)),
    )
    phi_slot = ProjectorListObservable(
        labels=("phi0",),
        matrices=(np.kron(proj(phi0), proj(det_basis[0])),),
    )
    m_slot = ProjectorListObservable(
        labels=tuple(f"M{i + 1}" for i in range(n)),
        matrices=tuple(np.kron(proj(sys_basis[i]), proj(det_basis[i + 1])) for i in range(n)),
    )
    return ket0, U, s_slot, phi_slot, m_slot


def measurement_fam1() -> Scenario:
    ket0, U, s_slot, _, m_slot = _measurement_pieces()
    return Scenario(
        name="measurement_fam1",
        subsystem_dims=(2, 3),
        initial_state=ket0,
        times=GRID,
        evolutions=("identity", U),
        observers=(
            ObserverSpec(name="O1", measurements=(measure("t1", s_slot), measure("t2", m_slot))),
        ),
    )


def measurement_fam2() -> Scenario:
    ket0, U, _, phi_slot, m_slot = _measurement_pieces()
    return Scenario(
        name="measurement_fam2",
        subsystem_dims=(2, 3),
        initial_state=ket0,
        times=GRID,
        evolutions=("identity", U),
        observers=(
            ObserverSpec(name="O1", measurements=(measure("t1", phi_slot), measure("t2", m_slot))),
        ),
    )


BUILDERS = (repeated_x, zxz_inconsistent, stable_facts, relative_facts, measurement_fam1, measurement_fam2)


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for build in BUILDERS:
        scenario = build()
        data = serialize_scenario(scenario)
        assert parse_scenario(data) == scenario, scenario.name
        resolve(parse_scenario(data))
        path = OUT / f"{scenario.name}.json"
        path.write_bytes(data)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
