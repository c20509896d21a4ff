"""Expected exit codes and answers, computed apart from the path under test.

The CLI builds each chain ket by composing the operator string history by
history.  This module instead propagates all kets of a family level by level
(evolve the whole batch, then split it by the slot's projectors), takes the
Gram matrix of the nonzero kets only, and recomputes every reported
probability with ``oracle.sequential_probability``.  It shares with the CLI
only ``scenario.resolve``, which turns the file into projectors.

``expect(cmd)`` returns the exit code a command must end with and a function
that raises ``Mismatch`` when the command's standard output is wrong.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qhist.framework import CONJUNCTION_JOINER
from qhist.oracle import sequential_probability
from qhist.scenario import effective_tolerance, resolve

PROBABILITY_BOUND = 1e-12
TEXT_ROUNDING = 5e-13  # the text report rounds to 12 significant digits


class Mismatch(Exception):
    """A command's exit code or output differs from the expected one."""


@dataclass(frozen=True)
class FamilyRef:
    labels: tuple[tuple[str, ...], ...]
    slot_labels: tuple[tuple[str, ...], ...]
    probabilities: np.ndarray
    max_offdiag: float
    consistent: bool

    def mass(self, slot: int, label: str, given: tuple[int, str] | None = None) -> float:
        total = 0.0
        for labels, p in zip(self.labels, self.probabilities):
            if labels[slot] == label and (given is None or labels[given[0]] == given[1]):
                total += p
        return total


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def family_ref(psi0, unitaries, slots, tol) -> FamilyRef:
    """Kets of every history by batched propagation; consistency from the nonzero ones."""
    d = psi0.shape[0]
    kets = psi0[None, :]
    for u, slot in zip(unitaries, slots):
        kets = kets @ u.T
        kets = np.stack([kets @ p.T for _, p in slot], axis=1).reshape(-1, d)
    probabilities = np.einsum("ij,ij->i", kets.conj(), kets).real
    live = kets[np.any(kets != 0, axis=1)]
    gram = live.conj() @ live.T
    np.fill_diagonal(gram, 0.0)
    max_offdiag = _max_abs(gram)
    threshold = tol.cons * max(1.0, float(np.max(probabilities, initial=0.0)))
    slot_labels = tuple(tuple(label for label, _ in slot) for slot in slots)
    return FamilyRef(
        labels=tuple(itertools.product(*slot_labels)),
        slot_labels=slot_labels,
        probabilities=probabilities,
        max_offdiag=max_offdiag,
        consistent=max_offdiag <= threshold,
    )


class ScenarioRef:
    """Reference answers for one scenario, computed on first use."""

    def __init__(self, scn):
        self.scn = scn
        self.tol = effective_tolerance(scn)
        self.records = resolve(scn, self.tol, max_histories=2**62)
        self.names = [r.name for r in self.records]
        first = self.records[0].family
        self.psi0 = first.initial_ket
        self.unitaries = [ev.unitary for ev in first.evolutions]
        self.slots = {r.name: [list(d.items()) for d in r.family.slot_decompositions] for r in self.records}
        self._families: dict[str, FamilyRef | None] = {}
        self._oracle: dict[str, np.ndarray] = {}

    def family(self, name: str) -> FamilyRef | None:
        """An observer's family, or ``"combined"``: the left-fold product, None if not combinable."""
        if name not in self._families:
            if name == "combined":
                self._families[name] = self._combined()
            else:
                self._families[name] = family_ref(self.psi0, self.unitaries, self.slots[name], self.tol)
        return self._families[name]

    def oracle(self, name: str) -> np.ndarray:
        if name not in self._oracle:
            family = next(r.family for r in self.records if r.name == name)
            self._oracle[name] = np.array(
                [sequential_probability(family, labels) for labels in self.family(name).labels]
            )
        return self._oracle[name]

    def _commute(self, slots_a, slots_b) -> bool:
        return all(
            _max_abs(p @ q - q @ p) <= self.tol.comm
            for sa, sb in zip(slots_a, slots_b) for _, p in sa for _, q in sb
        )

    def _product(self, slots_a, slots_b):
        return [
            [(f"{la}{CONJUNCTION_JOINER}{lb}", p @ q) for la, p in sa for lb, q in sb
             if _max_abs(p @ q) > self.tol.proj]
            for sa, sb in zip(slots_a, slots_b)
        ]

    def pair(self, slots_a, slots_b) -> tuple[str, str | None, list | None]:
        """(verdict, failing condition, product slots when stable)."""
        if not self._commute(slots_a, slots_b):
            return "relative", "condition1", None
        product = self._product(slots_a, slots_b)
        if not family_ref(self.psi0, self.unitaries, product, self.tol).consistent:
            return "relative", "condition2", None
        return "stable", None, product

    def _combined(self) -> FamilyRef | None:
        acc = self.slots[self.names[0]]
        for name in self.names[1:]:
            _, _, acc = self.pair(acc, self.slots[name])
            if acc is None:
                return None
        return family_ref(self.psi0, self.unitaries, acc, self.tol)

    def total_histories(self) -> int:
        return sum(len(self.family(n).labels) for n in self.names)


# ---------------------------------------------------------------------------
# expectations per command kind

def _close(value: float, expected: float, bound: float, what: str) -> None:
    if not abs(value - expected) <= bound:
        raise Mismatch(f"{what}: got {value!r}, expected {expected!r}")


def _equal(value, expected, what: str) -> None:
    if value != expected:
        raise Mismatch(f"{what}: got {value!r}, expected {expected!r}")


def _validate(ref: ScenarioRef, cmd):
    line = (f"ok: scenario {ref.scn.name!r}, dim {ref.scn.total_dim}, "
            f"{len(ref.names)} observer(s), {ref.total_histories()} histories\n")
    return 0, lambda out: _equal(out, line, "validate report")


def _analyze(ref: ScenarioRef, cmd):
    families = [ref.family(n) for n in ref.names]
    code = 0 if all(f.consistent for f in families) else 2

    def check_family(name, fam, consistent, max_offdiag, labels, probs, bound):
        _equal(consistent, fam.consistent, f"{name} verdict")
        _close(max_offdiag, fam.max_offdiag, bound, f"{name} max off-diagonal")
        _equal(labels, list(fam.labels), f"{name} history labels")
        worst = float(np.max(np.abs(np.asarray(probs) - ref.oracle(name)), initial=0.0))
        _close(worst, 0.0, bound, f"{name} worst probability vs oracle")

    def check(out: str) -> None:
        if "--json" in cmd.args:
            doc = json.loads(out)
            _equal([o["name"] for o in doc["observers"]], ref.names, "observers")
            for obs, fam in zip(doc["observers"], families):
                check_family(obs["name"], fam, obs["consistent"], obs["max_offdiag"],
                             [tuple(h["labels"]) for h in obs["histories"]],
                             [h["probability"] for h in obs["histories"]], PROBABILITY_BOUND)
            return
        lines = out.splitlines()
        _equal(lines[0], f"scenario: {ref.scn.name}", "header")
        pos = 1
        header = re.compile(r"observer (\S+): (consistent|inconsistent) \(max off-diagonal (\S+), threshold \S+\)")
        for name, fam in zip(ref.names, families):
            m = header.fullmatch(lines[pos])
            if m is None or m.group(1) != name:
                raise Mismatch(f"bad observer line {lines[pos]!r}")
            rows = [line[2:].rsplit("  ", 1) for line in lines[pos + 1: pos + 1 + len(fam.labels)]]
            check_family(name, fam, m.group(2) == "consistent", float(m.group(3)),
                         [tuple(r[0].split(",")) for r in rows], [float(r[1]) for r in rows],
                         PROBABILITY_BOUND + TEXT_ROUNDING)
            pos += 1 + len(fam.labels)
        _equal(len(lines), pos, "line count")

    return code, check


def _verify(ref: ScenarioRef, cmd):
    pattern = re.compile(r"ok: scenario (.*), (\d+) histories cross-checked, worst discrepancy (\S+)\n")

    def check(out: str) -> None:
        m = pattern.fullmatch(out)
        if m is None:
            raise Mismatch(f"bad verify report {out!r}")
        _equal(m.group(1), repr(ref.scn.name), "scenario")
        _equal(int(m.group(2)), ref.total_histories(), "histories cross-checked")
        _close(float(m.group(3)), 0.0, PROBABILITY_BOUND, "worst discrepancy")

    return 0, check


def _classify(ref: ScenarioRef, cmd):
    if "--pair" in cmd.args:
        i = cmd.args.index("--pair")
        pairs = [tuple(cmd.args[i + 1: i + 3])]
    else:
        pairs = list(itertools.combinations(ref.names, 2))
    expected = [(a, b, *ref.pair(ref.slots[a], ref.slots[b])[:2]) for a, b in pairs]
    nway = None
    if "--pair" not in cmd.args and len(ref.names) >= 3:
        combinable = ref.family("combined") is not None
        nway = (combinable, True if combinable else None)

    def check(out: str) -> None:
        if "--json" in cmd.args:
            doc = json.loads(out)
            got = [(p["a"], p["b"], p["verdict"], p["failing_condition"]) for p in doc["pairs"]]
            _equal(got, expected, "pair verdicts")
            got_nway = None if "nway" not in doc else (doc["nway"]["combinable"], doc["nway"]["consistent"])
            _equal(got_nway, nway, "n-way fold")
            return
        got = []
        for line in out.splitlines():
            m = re.fullmatch(r"pair (\S+),(\S+): (stable|relative)(?: \((condition\d) fails\))?", line)
            if m:
                got.append(m.groups())
        _equal(got, expected, "pair verdicts")

    return 0, check


def _fact(spec: str, fam: FamilyRef, times) -> tuple[int, str] | None:
    time, _, label = spec.partition(":")
    slot = times.index(time) - 1
    return (slot, label) if label in fam.slot_labels[slot] else None


def _conditional(ref: ScenarioRef, cmd):
    args = dict(zip(cmd.args[::2], cmd.args[1::2]))
    fam = ref.family(args["--family"])
    if fam is None:
        return 1, None
    if not fam.consistent:
        return 3, None
    event = _fact(args["--event"], fam, ref.scn.times)
    given = _fact(args["--given"], fam, ref.scn.times)
    if event is None or given is None:
        return 3, None
    given_mass = fam.mass(*given)
    if given_mass <= ref.tol.cons:
        return 2, None
    value = float(fam.mass(*event, given=given) / given_mass)

    def check(out: str) -> None:
        if "--json" in cmd.args:
            got, bound = json.loads(out)["probability"], PROBABILITY_BOUND
        else:
            m = re.fullmatch(r"P\(.*\) = (\S+) \[family .*\]\n", out)
            if m is None:
                raise Mismatch(f"bad conditional report {out!r}")
            got, bound = float(m.group(1)), PROBABILITY_BOUND + TEXT_ROUNDING
        _close(got, value, bound, "conditional vs reference")
        if cmd.closed_form is not None:
            _close(got, cmd.closed_form, bound, "conditional vs closed form")

    return 0, check


_KINDS = {"validate": _validate, "analyze": _analyze, "verify": _verify,
          "classify": _classify, "conditional": _conditional}


def expect(ref: ScenarioRef, cmd) -> tuple[int, Callable[[str], None] | None]:
    """(exit code, output check or None) for one command.

    Where the physics fixes the outcome on its own (a closed-form answer, or
    ``expect_exit``), the reference must agree with it, or the benchmark
    itself is wrong and refuses to run.
    """
    code, check = _KINDS[cmd.kind](ref, cmd)
    fixed = 0 if cmd.closed_form is not None else cmd.expect_exit
    if fixed is not None and fixed != code:
        raise RuntimeError(f"reference gives exit {code} for {cmd}, the physics fixes {fixed}")
    return code, check
