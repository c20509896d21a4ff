"""Seeded scenario generators and fixed command lists, one per workload.

Every workload is a list of scenario files plus a command list that is the
same on every pass.  The seed changes only what leaves the amount of work
unchanged (initial-state signs, which qubit plays which role, Haar draws, the
order of the gallery commands), so runs with different seeds measure the same
cost.  Expected exit codes and answers come from ``reference``; a command may
also carry a value that the physics fixes on its own (``closed_form``,
``expect_exit``), which ``reference`` must agree with.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass

import numpy as np

from qhist.framework import CONJUNCTION_JOINER as AND
from qhist.scenario import (
    Measurement,
    MatrixObservable,
    NamedObservable,
    ObserverSpec,
    Scenario,
    parse_scenario,
    serialize_scenario,
)

GALLERY = (
    "repeated_x",
    "zxz_inconsistent",
    "stable_facts",
    "relative_facts",
    "measurement_fam1",
    "measurement_fam2",
)


@dataclass(frozen=True)
class Cmd:
    """One CLI call: ``qhist <kind> <scenario file> <args...>``.

    ``known_defect`` marks a command that the program is known to get wrong
    by not completing (an uncaught exception or another exit code).  It runs
    once per run, outside the timed passes, and such an outcome counts as a
    failed command rather than a wrong one.
    """

    kind: str
    scenario: str
    args: tuple[str, ...] = ()
    closed_form: float | None = None
    expect_exit: int | None = None
    known_defect: bool = False

    def argv(self, paths: dict[str, pathlib.Path]) -> list[str]:
        return [self.kind, str(paths[self.scenario]), *self.args]


def cond(scenario: str, family: str, event: str, given: str, *extra: str,
         closed_form: float | None = None, expect_exit: int | None = None) -> Cmd:
    return Cmd("conditional", scenario, ("--family", family, "--event", event, "--given", given, *extra),
               closed_form, expect_exit)


def _times(n_slots: int) -> tuple[str, ...]:
    return tuple(f"t{k}" for k in range(n_slots + 1))


def _observer(name: str, by_time: dict[str, object]) -> ObserverSpec:
    return ObserverSpec(
        name=name,
        measurements=tuple(
            Measurement(time=t, observable=NamedObservable(o) if isinstance(o, str) else o)
            for t, o in by_time.items()
        ),
    )


def _flip(sign: str) -> str:
    return "-" if sign == "+" else "+"


# ---------------------------------------------------------------------------
# gallery: the six shipped scenarios, every command and refusal path

def gallery(rng: random.Random, root: pathlib.Path):
    scenarios = {}
    for name in GALLERY:
        scenarios[name] = parse_scenario((root / "scenarios" / f"{name}.json").read_bytes())
    cmds = []
    for name in GALLERY:
        verdict_exit = 2 if name == "zxz_inconsistent" else 0
        cmds += [
            Cmd("validate", name),
            Cmd("analyze", name, expect_exit=verdict_exit),
            Cmd("analyze", name, ("--json",), expect_exit=verdict_exit),
            Cmd("verify", name),
        ]
    for name in ("stable_facts", "relative_facts"):
        cmds += [Cmd("classify", name), Cmd("classify", name, ("--json",))]
    cmds += [
        Cmd("classify", "stable_facts", ("--pair", "O1", "O2")),
        cond("repeated_x", "O1", "t2:+x", "t1:+x", closed_form=1.0),
        cond("repeated_x", "O1", "t2:-x", "t1:+x", "--json", closed_form=0.0),
        cond("repeated_x", "O1", "t1:+q", "t2:+x", expect_exit=3),
        cond("zxz_inconsistent", "O1", "t2:+z", "t1:+x", expect_exit=3),
        cond("measurement_fam1", "O1", "t1:s1", "t2:M1", closed_form=1.0),
        cond("measurement_fam1", "O1", "t1:s2", "t2:M1", closed_form=0.0),
        cond("measurement_fam1", "O1", "t2:M2", "t1:s2", "--json", closed_form=1.0),
        cond("measurement_fam2", "O1", "t2:M1", "t1:phi0", closed_form=0.5),
        cond("measurement_fam2", "O1", "t2:M1", "t1:rest", expect_exit=2),
        cond("stable_facts", "O2", "t2:+x", "t1:+x", closed_form=0.5),
        cond("stable_facts", "combined", f"t2:+z{AND}+x", f"t1:+x{AND}+x", closed_form=0.25),
        cond("stable_facts", "combined", f"t2:-z{AND}-x", f"t1:+x{AND}+x", "--json", closed_form=0.25),
        cond("relative_facts", "O2", "t2:+x", "t1:+y", closed_form=0.5),
        cond("relative_facts", "combined", f"t2:+z{AND}+x", f"t1:+x{AND}+y", expect_exit=1),
    ]
    rng.shuffle(cmds)
    return scenarios, cmds


# ---------------------------------------------------------------------------
# deep_chain: few dimensions, many slots; almost every chain ket is zero

SZ_SLOTS = (8, 10, 12)
SZ_HUGE = 15  # passes validate, then analyze asks for a 16 GiB Gram matrix
CHAIN3_SLOTS = 10


def _sz_chain(n_slots: int) -> Scenario:
    times = _times(n_slots)
    return Scenario(
        name=f"sz_chain_{n_slots}",
        subsystem_dims=(2,),
        initial_state=("up_z",),
        times=times,
        evolutions=("identity",) * n_slots,
        observers=(_observer("O1", {t: "sigma_z" for t in times[1:]}),),
    )


def deep_chain(rng: random.Random, root: pathlib.Path):
    scenarios = {f"sz{n}": _sz_chain(n) for n in (*SZ_SLOTS, SZ_HUGE)}
    # Qubit 1 starts off the z axis and qubit 2 off the x axis, so exactly 4
    # of the 2^10 chain kets are nonzero whatever the seed picks.
    s1 = rng.choice(["plus_x", "minus_x", "plus_y", "minus_y"])
    s2 = rng.choice(["up_z", "down_z", "plus_y", "minus_y"])
    s3 = rng.choice(["up_z", "down_z", "plus_x", "minus_x", "plus_y", "minus_y"])
    times = _times(CHAIN3_SLOTS)
    chain = {t: ("sigma_z@1" if k % 2 else "sigma_x@2") for k, t in enumerate(times) if k}
    scenarios["chain3"] = Scenario(
        name="chain3",
        subsystem_dims=(2, 2, 2),
        initial_state=(s1, s2, s3),
        times=times,
        evolutions=("identity",) * CHAIN3_SLOTS,
        observers=(_observer("O1", chain), _observer("O2", {"t1": "sigma_z@1"})),
    )
    cmds = []
    for key, n in zip(("sz8", "sz10", "sz12"), SZ_SLOTS):
        cmds += [Cmd("validate", key), Cmd("analyze", key, ("--json",), expect_exit=0)]
        # verify and conditional at 12 slots would take most of a pass and
        # leave too few passes for each command's best time
        if n < SZ_SLOTS[-1]:
            cmds += [Cmd("verify", key), cond(key, "O1", f"t{n}:+z", "t1:+z", closed_form=1.0)]
    last = CHAIN3_SLOTS - 1  # last sigma_z@1 slot
    cmds += [
        # ends in an uncaught MemoryError under the 4 GiB address-space limit
        Cmd("analyze", f"sz{SZ_HUGE}", ("--json",), expect_exit=0, known_defect=True),
        Cmd("validate", "chain3"),
        Cmd("analyze", "chain3", ("--json",), expect_exit=0),
        Cmd("verify", "chain3"),
        Cmd("classify", "chain3"),
        Cmd("classify", "chain3", ("--json",)),
        Cmd("classify", "chain3", ("--pair", "O1", "O2")),
        cond("chain3", "O1", f"t{last}:+z", "t1:+z", closed_form=1.0),
        cond("chain3", "O1", f"t{last}:-z", "t1:+z", closed_form=0.0),
    ]
    return scenarios, cmds


# ---------------------------------------------------------------------------
# wide_dense: d = 64, Haar evolutions, 4-outcome degenerate observables

WIDE_QUBITS = 6
WIDE_SLOTS = (3, 4, 5)
EIGENVALUES = (-1.5, -0.5, 0.5, 1.5)


def _haar_unitary(gen: np.random.Generator, d: int) -> np.ndarray:
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _degenerate_observable(gen: np.random.Generator, d: int) -> MatrixObservable:
    v = _haar_unitary(gen, d)
    spectrum = np.repeat(EIGENVALUES, d // len(EIGENVALUES))
    m = (v * spectrum) @ v.conj().T
    return MatrixObservable(matrix=(m + m.conj().T) / 2)


def wide_dense(rng: random.Random, root: pathlib.Path):
    gen = np.random.default_rng(rng.getrandbits(64))
    d = 2**WIDE_QUBITS
    presets = ["up_z", "down_z", "plus_x", "minus_x", "plus_y", "minus_y"]
    scenarios = {}
    for n in WIDE_SLOTS:
        times = _times(n)
        n_observers = 2 if n == WIDE_SLOTS[0] else 1
        scenarios[f"wide{n}"] = Scenario(
            name=f"wide_dense_{n}",
            subsystem_dims=(2,) * WIDE_QUBITS,
            initial_state=tuple(rng.choice(presets) for _ in range(WIDE_QUBITS)),
            times=times,
            evolutions=tuple(_haar_unitary(gen, d) for _ in range(n)),
            observers=tuple(
                _observer(f"O{i + 1}", {t: _degenerate_observable(gen, d) for t in times[1:]})
                for i in range(n_observers)
            ),
        )
    cmds = []
    for n in WIDE_SLOTS:
        cmds += [Cmd("validate", f"wide{n}"), Cmd("analyze", f"wide{n}", ("--json",)), Cmd("verify", f"wide{n}")]
    low, high = (f"ev0={EIGENVALUES[0]:.6g}", f"ev3={EIGENVALUES[3]:.6g}")
    first = f"wide{WIDE_SLOTS[0]}"
    cmds += [
        Cmd("classify", first, ("--json",)),
        cond(first, "O1", f"t{WIDE_SLOTS[0]}:{high}", f"t1:{low}"),
        cond(first, "O2", f"t2:{low}", f"t1:{high}", "--json"),
    ]
    return scenarios, cmds


# ---------------------------------------------------------------------------
# observers: many small product families, checked again and again

OBS_SLOTS = 5


def observers(rng: random.Random, root: pathlib.Path):
    # Roles: qubit a starts on the z axis, b on x, c on z, d on y.
    a, b, c, d = rng.sample(range(1, 5), 4)
    sa, sb, sc, sd = (rng.choice("+-") for _ in range(4))
    preset = {"z": ("up_z", "down_z"), "x": ("plus_x", "minus_x"), "y": ("plus_y", "minus_y")}
    state = [""] * 4
    for q, axis, sign in ((a, "z", sa), (b, "x", sb), (c, "z", sc), (d, "y", sd)):
        state[q - 1] = preset[axis][0 if sign == "+" else 1]
    # Every observer measures all five slots.
    # O1/O2 commute slot by slot and combine consistently: stable.
    # O3 measures sigma_y then sigma_z on a: condition 1 fails against O1
    # and O2, and O3's own family is inconsistent.
    # O4 commutes with O1 slot by slot, but their product measures z, x, z
    # on a, which interferes: condition 2 fails.
    o1 = _observer("O1", {"t1": f"sigma_z@{a}", "t2": f"sigma_x@{b}", "t3": f"sigma_z@{a}",
                          "t4": f"sigma_x@{b}", "t5": f"sigma_z@{a}"})
    o2 = _observer("O2", {"t1": f"sigma_z@{a}", "t2": f"sigma_z@{c}", "t3": f"sigma_x@{b}",
                          "t4": f"sigma_z@{c}", "t5": f"sigma_z@{c}"})
    # O3's last slot, sigma_x on b, is given as a matrix, so that the linalg
    # layer (eigh of a degenerate observable) runs on this workload too.
    sigma_x_b = np.kron(np.kron(np.eye(2 ** (b - 1)), [[0, 1], [1, 0]]), np.eye(2 ** (4 - b))) + 0j
    o3 = _observer("O3", {"t1": f"sigma_y@{a}", "t2": f"sigma_z@{a}", "t3": f"sigma_y@{d}",
                          "t4": f"sigma_y@{d}", "t5": MatrixObservable(sigma_x_b)})
    o4 = _observer("O4", {"t1": f"sigma_y@{d}", "t2": f"sigma_x@{a}", "t3": f"sigma_y@{d}",
                          "t4": f"sigma_y@{d}", "t5": f"sigma_y@{d}"})

    def scenario(name, specs):
        return Scenario(
            name=name,
            subsystem_dims=(2, 2, 2, 2),
            initial_state=tuple(state),
            times=_times(OBS_SLOTS),
            evolutions=("identity",) * OBS_SLOTS,
            observers=specs,
        )

    scenarios = {"all": scenario("observers_all", (o1, o2, o3, o4)),
                 "stable": scenario("observers_stable", (o1, o2))}
    za, zna, xb, zc, yd = f"{sa}z", f"{_flip(sa)}z", f"{sb}x", f"{sc}z", f"{sd}y"
    cmds = [
        Cmd("validate", "all"),
        Cmd("analyze", "all", ("--json",), expect_exit=2),
        Cmd("verify", "all"),
        Cmd("classify", "all", ("--json",)),
        Cmd("classify", "all", ("--pair", "O1", "O2")),
        Cmd("classify", "all", ("--pair", "O1", "O3")),
        Cmd("classify", "all", ("--pair", "O1", "O4")),
        cond("all", "O1", f"t3:{za}", f"t1:{za}", closed_form=1.0),
        cond("all", "O1", f"t5:{zna}", f"t1:{za}", "--json", closed_form=0.0),
        cond("all", "O1", f"t4:{xb}", f"t2:{xb}", closed_form=1.0),
        cond("all", "O1", f"t3:{za}", f"t1:{zna}", expect_exit=2),
        cond("all", "O1", "t1:+q", f"t3:{za}", expect_exit=3),
        cond("all", "O2", f"t4:{zc}", f"t2:{zc}", closed_form=1.0),
        cond("all", "O2", f"t3:{xb}", f"t1:{za}", "--json", closed_form=1.0),
        cond("all", "O3", f"t2:{za}", f"t1:+y", expect_exit=3),
        cond("all", "O3", f"t3:{yd}", f"t1:-y", expect_exit=3),
        cond("all", "O4", "t2:+x", f"t3:{yd}", closed_form=0.5),
        cond("all", "O4", f"t4:{yd}", f"t3:{yd}", "--json", closed_form=1.0),
        cond("all", "O4", f"t4:{yd}", f"t3:{_flip(sd)}y", expect_exit=2),
        cond("all", "combined", f"t3:{za}{AND}{xb}", f"t1:{za}{AND}{za}", expect_exit=1),
        Cmd("validate", "stable"),
        Cmd("analyze", "stable", ("--json",), expect_exit=0),
        Cmd("verify", "stable"),
        cond("stable", "combined", f"t5:{za}{AND}{zc}", f"t1:{za}{AND}{za}", closed_form=1.0),
        cond("stable", "combined", f"t2:{xb}{AND}{zc}", f"t1:{za}{AND}{za}", "--json", closed_form=1.0),
        cond("stable", "combined", f"t3:{za}{AND}{xb}", f"t1:{zna}{AND}{zna}", expect_exit=2),
        cond("stable", "combined", f"t1:{za}{AND}{zna}", f"t2:{xb}{AND}{zc}", expect_exit=3),
    ]
    return scenarios, cmds


def warm_up():
    """A 2-qubit scenario that takes every command kind through its first calls
    (argparse, JSON, eigh, matmul) before any timing starts."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    times = _times(2)
    scn = Scenario(
        name="warm_up",
        subsystem_dims=(2, 2),
        initial_state=("plus_x", "up_z"),
        times=times,
        evolutions=("identity", np.kron(h, np.eye(2))),
        observers=(
            _observer("O1", {"t1": "sigma_x@1", "t2": MatrixObservable(np.diag([0.0, 1.0, 2.0, 3.0]) + 0j)}),
            _observer("O2", {"t1": "sigma_x@1"}),
        ),
    )
    cmds = [
        Cmd("validate", "warm_up"),
        Cmd("analyze", "warm_up", ("--json",)),
        Cmd("classify", "warm_up", ("--json",)),
        cond("warm_up", "O2", "t1:+x", "t1:+x", "--json"),
        Cmd("verify", "warm_up"),
    ]
    return {"warm_up": scn}, cmds


GENERATORS = {"gallery": gallery, "deep_chain": deep_chain, "wide_dense": wide_dense, "observers": observers}


def generate(workload: str, seed: int, root: pathlib.Path):
    """The workload's scenarios and command list for this seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), root)


def write(scenarios: dict[str, Scenario], out_dir: pathlib.Path) -> dict[str, pathlib.Path]:
    """Write each scenario with ``serialize_scenario``; it must parse back unchanged."""
    paths = {}
    for key, scn in scenarios.items():
        data = serialize_scenario(scn)
        if parse_scenario(data) != scn:
            raise RuntimeError(f"scenario {key} does not survive a serialize/parse round trip")
        paths[key] = out_dir / f"{key}.json"
        paths[key].write_bytes(data)
    return paths
