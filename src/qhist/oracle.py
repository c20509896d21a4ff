"""Independent brute-force verifier for history probabilities.

``sequential_probability`` reimplements the Born rule as a plain state
propagation: evolve the vector, project it, never normalize, and read the
final squared norm, one history at a time.  ``sequential_probabilities``
runs the same steps for a whole family as a walk of the tree of history
prefixes, with one evolve-and-project per prefix, so siblings share their
parent's evolved state.  It expands only prefixes whose state is nonzero:
every extension of an exactly-zero state is exactly zero, so the leaves of a
skipped subtree keep the 0.0 the full walk would write, and the walk gives
the same bits as the unpruned ``sequential_probability`` history by history,
zero subtrees included.  Both deliberately share no code with ``histories``
(whose ``chain_ket`` composes the operator string and whose
``consistency_check`` propagates all histories as one batch); agreement
between them is the suite's strongest cross-check.

``exhaustive_additivity_scan`` probes the operational meaning of consistency:
for every pairwise merge of two outcomes at one slot it compares the merged
history's probability (computed in the coarse-grained family) against the sum
of the fine-grained ones, reading both from the prefix walk: one walk of the
family and one of each coarse-grained family.  Consistent families show no
discrepancy; an inconsistent family betrays itself whenever some off-diagonal
overlap has a real part (a purely imaginary overlap is invisible to
additivity yet still counts as inconsistent, a distinction the tests
document).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SizeCapError, UnknownLabelError
from .histories import HistoryFamily, coarse_grain
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "AdditivityViolation",
    "sequential_probability",
    "sequential_probabilities",
    "exhaustive_additivity_scan",
]

MAX_MERGE_LABELS = 12


def sequential_probability(family: HistoryFamily, seq: Sequence[str]) -> float:
    """Probability of an outcome sequence by stepwise evolve-and-project."""
    labels = tuple(seq)
    if len(labels) != family.n_slots:
        raise UnknownLabelError(
            f"sequence has {len(labels)} labels, family has {family.n_slots} slots"
        )
    state = np.array(family.initial_ket, dtype=complex)
    for decomp, ev, label in zip(family.slot_decompositions, family.evolutions, labels):
        projector = decomp.projector_for(label)
        state = projector @ (ev.unitary @ state)
    return float(np.vdot(state, state).real)


def sequential_probabilities(family: HistoryFamily) -> np.ndarray:
    """Every history's probability, in ``itertools.product`` order of the
    slot labels, by a depth-first walk of the tree of history prefixes.

    Each node runs the step of ``sequential_probability``: the parent's
    state is evolved once, and each child projects that evolved state.  A
    proper prefix whose state is exactly zero is not expanded, and its
    subtree's leaves keep the 0.0 they start with: the evolutions and
    projectors are finite, so each extension of a zero state is zero, and
    its squared norm is +0.0, the value the full walk would write.  Leaves
    are not tested; a zero leaf's squared norm is written as computed.  In
    exact arithmetic a consistent family has at most d nonzero prefixes per
    level, every truncation of it being consistent too, so its walk costs
    O(d * total outcomes) rather than O(histories); a dense family costs
    what the full walk does.  The walk keeps an explicit stack, so the
    number of slots is not bounded by the recursion limit.
    """
    steps = [(ev.unitary, d.projectors) for ev, d in zip(family.evolutions, family.slot_decompositions)]
    out = np.zeros(family.n_histories)
    # (depth, flat index of the prefix among prefixes of its depth, state)
    stack = [(0, 0, np.array(family.initial_ket, dtype=complex))]
    while stack:
        depth, index, state = stack.pop()
        if depth == len(steps):
            out[index] = np.vdot(state, state).real
            continue
        if not np.count_nonzero(state):  # cheaper than state.any() on a short vector
            continue
        unitary, projectors = steps[depth]
        evolved = unitary @ state
        n = len(projectors)
        for k in range(n):
            stack.append((depth + 1, index * n + k, projectors[k] @ evolved))
    return out


@dataclass(frozen=True)
class AdditivityViolation:
    """One slot merge whose probability is not the sum of its parts."""

    time: str
    merged: tuple[str, str]
    context: tuple[str, ...]  # labels of the other slots, in slot order
    coarse_probability: float
    fine_sum: float

    @property
    def discrepancy(self) -> float:
        return abs(self.coarse_probability - self.fine_sum)


def exhaustive_additivity_scan(
    family: HistoryFamily, tol: Tolerance = DEFAULT_TOL
) -> list[AdditivityViolation]:
    """All single-slot pairwise merges whose probability fails additivity.

    A merge is reported when |P(merged) - sum of fine P| > 10 * tol.cons,
    with P(merged) evaluated in the coarse-grained family itself.  Empty for
    consistent families.  Violations come by slot, merge, then context in
    ``itertools.product`` order.  The cost is one ``sequential_probabilities``
    walk per merge, of its coarse-grained family, plus one of ``family``.
    """
    slot_times = family.grid.slot_times
    decomps = family.slot_decompositions
    for time, decomp in zip(slot_times, decomps):
        if len(decomp) > MAX_MERGE_LABELS:
            raise SizeCapError(
                f"slot {time!r} has {len(decomp)} outcomes; merge scan capped at {MAX_MERGE_LABELS}"
            )
    bound = 10.0 * tol.cons
    fine = sequential_probabilities(family).reshape(family.shape)
    violations: list[AdditivityViolation] = []
    for s, (time, decomp) in enumerate(zip(slot_times, decomps)):
        other_labels = [d.labels for k, d in enumerate(decomps) if k != s]
        for (i, l1), (j, l2) in itertools.combinations(enumerate(decomp.labels), 2):
            groups = [(l1, l2)] + [(lab,) for lab in decomp.labels if lab not in (l1, l2)]
            merged = coarse_grain(family, {time: groups}, tol)
            # coarse_grain orders groups by their first label, so the merge is outcome i
            coarse = np.take(sequential_probabilities(merged).reshape(merged.shape), i, axis=s)
            fine_sum = np.take(fine, i, axis=s) + np.take(fine, j, axis=s)
            for at in map(tuple, np.argwhere(np.abs(coarse - fine_sum) > bound)):
                context = tuple(labels[k] for labels, k in zip(other_labels, at))
                violations.append(
                    AdditivityViolation(time, (l1, l2), context, float(coarse[at]), float(fine_sum[at]))
                )
    return violations
