"""The scale ladder: families that stress the engine, run as real ``qhist`` processes.

    python3 scripts/scale.py [--seed N] [--quick]
    python3 scripts/scale.py --compare PARENT_TREE CHANGE_TREE

The script generates each family in process from ``--seed`` and writes it
as a scenario file to a temporary directory:

- Heisenberg d=8: one Haar unitary U on every interval, a Haar initial ket,
  and at slot k the observable U^k A U^-k, where A is diagonal with 4 or 8
  distinct eigenvalues: A carried along by the evolution.  In exact
  arithmetic only the histories that repeat one outcome have a nonzero
  chain ket.  In floating point almost every other chain ket is of
  rounding size but not exactly zero, so the verdict's Gram matrix has
  almost one row per history, and the family is consistent.
- dense d=8 (Haar): an independent Haar unitary per interval, a Haar ket,
  and at each slot a Haar-rotated observable with 4 distinct eigenvalues.
- wide d=64 (Haar): the same on 6 qubits, the dimension of ``perfbench``'s
  ``wide_dense`` workload, whose generators it reads.
- cap: d=10, the ket e0, and at each of its slots a diagonal observable
  with 10 distinct eigenvalues, so 10^6 histories at 6 slots, of which one
  chain ket is nonzero.
- σz chains: ``perfbench.workloads._sz_chain``, which is only read.

Each command then runs in a child process of its own through
``peak.measure``, started from a small process of its own (``RUNNER``),
because on Linux a child's peak RSS also counts what its parent held up to
the child's ``exec``, and this script holds numpy and the families.  That
small process sets ``RLIMIT_AS`` to 3 GB, the limit under which the
expected outcomes were measured, and the child inherits it.  Each tree gets one fresh ``PYTHONPYCACHEPREFIX``, which
an unreported ``import qhist.cli`` fills first, so that no command compiles
qhist or numpy and none reads bytecode left in a tree's ``__pycache__``.

First comes a floor block on the gallery: ``python -c pass``, ``import
numpy``, ``import qhist.cli``, ``import qhist.cli`` with qhist compiled at
start (``COMPILING``) and one ``qhist validate``, which is what a real
command pays before its own work starts.  Then comes the ladder.  Each
row prints the outcome (the exit code, and "out of memory" when the command
said so), the wall time, the child's own peak RSS (``os.wait4``), and the
stdout byte count and sha256.  Each row also prints the outcome it had when
the ladder was last measured, and ``DIFFERS`` where this run's outcome is
another.  That is a report, not a gate: the exit code is 0.  ``--quick``
runs each family at its smallest size instead, in a few seconds.

With ``--compare``, both trees run every command ``REPEAT`` times,
alternating which tree runs first from command to command and from round to
round, and each tree's median time and peak are printed; the byte count and
sha256 are printed when every run of both trees wrote the same bytes, and
the row is marked ``OUTPUT DIFFERS`` when not.  Without it, this checkout's
tree runs each command once.  The script downloads nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import numpy as np  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    WIDE_QUBITS,
    _degenerate_observable,
    _haar_unitary,
    _observer,
    _sz_chain,
    _times,
    write,
)
from qhist.scenario import MatrixObservable, Scenario  # noqa: E402

REPEAT = 3  # runs per tree and command with --compare
GB = 1 << 30
RLIMIT_AS = 3 * GB  # of each command; the OOM rows of LADDER and QUICK hold under it
OK = "exit 0"
INCONSISTENT = "exit 2"
OOM = "exit 1 (out of memory)"
BIG = ("--max-histories", str(2**40))

# Runs in a small process of its own: sets RLIMIT_AS, which the measured
# child inherits, and prints ``peak.measure``'s result as JSON.
RUNNER = """\
import json, pathlib, resource, sys
import peak
limit, tree, argv, pycache = json.loads(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
print(json.dumps(peak.measure(pathlib.Path(tree), argv, pycache)))
"""


@dataclass(frozen=True)
class Family:
    kind: str  # a key of BUILDERS
    slots: int
    outcomes: int

    @property
    def n_histories(self) -> int:
        return self.outcomes**self.slots

    @property
    def label(self) -> str:
        return LABELS[self.kind].format(slots=self.slots, outcomes=self.outcomes)


def _diagonal(values) -> MatrixObservable:
    return MatrixObservable(matrix=np.diag(np.asarray(values, dtype=complex)))


def heisenberg(gen: np.random.Generator, slots: int, outcomes: int) -> Scenario:
    u = _haar_unitary(gen, 8)
    # ``outcomes`` distinct eigenvalues, symmetric about 0, each ``8 // outcomes`` times
    a = np.diag(np.repeat(np.arange(outcomes) - (outcomes - 1) / 2, 8 // outcomes)).astype(complex)
    times = _times(slots)
    observables = {}
    for k, t in enumerate(times[1:], start=1):
        w = np.linalg.matrix_power(u, k)
        m = w @ a @ w.conj().T
        observables[t] = MatrixObservable(matrix=(m + m.conj().T) / 2)
    return Scenario(name=f"heisenberg_{slots}_{outcomes}", subsystem_dims=(8,),
                    initial_state=_haar_unitary(gen, 8)[:, 0], times=times, evolutions=(u,) * slots,
                    observers=(_observer("O1", observables),))


def _haar(gen: np.random.Generator, slots: int, dims: tuple[int, ...], name: str) -> Scenario:
    """An independent Haar unitary per interval, a Haar ket, and at each slot
    ``_degenerate_observable``, with 4 distinct eigenvalues."""
    d = int(np.prod(dims))
    times = _times(slots)
    observables = {t: _degenerate_observable(gen, d) for t in times[1:]}
    return Scenario(name=name, subsystem_dims=dims, initial_state=_haar_unitary(gen, d)[:, 0], times=times,
                    evolutions=tuple(_haar_unitary(gen, d) for _ in range(slots)),
                    observers=(_observer("O1", observables),))


def dense(gen: np.random.Generator, slots: int, outcomes: int) -> Scenario:
    """``outcomes`` is 4, the distinct eigenvalues of ``_degenerate_observable``."""
    return _haar(gen, slots, (8,), f"dense_{slots}_{outcomes}")


def wide(gen: np.random.Generator, slots: int, outcomes: int) -> Scenario:
    """``dense`` on ``WIDE_QUBITS`` qubits."""
    return _haar(gen, slots, (2,) * WIDE_QUBITS, f"wide_{slots}_{outcomes}")


def cap(gen: np.random.Generator, slots: int, outcomes: int) -> Scenario:
    times = _times(slots)
    ket = np.zeros(outcomes, dtype=complex)
    ket[0] = 1
    return Scenario(name=f"cap_{slots}", subsystem_dims=(outcomes,), initial_state=ket, times=times,
                    evolutions=("identity",) * slots,
                    observers=(_observer("O1", {t: _diagonal(gen.permutation(outcomes)) for t in times[1:]}),))


def sz_chain(gen: np.random.Generator, slots: int, outcomes: int) -> Scenario:
    return _sz_chain(slots)


BUILDERS = {"heisenberg": heisenberg, "dense": dense, "cap": cap, "sz": sz_chain, "wide": wide}
LABELS = {
    "heisenberg": "Heisenberg d=8, {slots} slots, {outcomes} outcomes",
    "dense": "dense d=8 (Haar), {slots} slots, {outcomes} outcomes",
    "wide": "wide d=64 (Haar), {slots} slots, {outcomes} outcomes",
    "cap": "cap: d={outcomes}, {slots} slots, 1 nonzero ket",
    "sz": "σz chain, {slots} slots",
}

# (family, qhist subcommand and options after the file, outcome when last measured)
LADDER = (
    (Family("heisenberg", 6, 4), ("analyze",), OK),
    (Family("heisenberg", 6, 4), ("verify",), OK),
    (Family("heisenberg", 7, 4), ("validate",), OK),
    (Family("heisenberg", 7, 4), ("analyze",), OOM),
    (Family("heisenberg", 7, 4), ("verify",), OOM),
    (Family("heisenberg", 6, 8), ("validate",), OK),
    (Family("heisenberg", 6, 8), ("analyze",), OOM),
    (Family("dense", 7, 4), ("validate",), OK),
    (Family("dense", 7, 4), ("analyze",), OOM),
    (Family("dense", 7, 4), ("verify",), OOM),
    (Family("wide", 3, 4), ("validate",), OK),
    (Family("wide", 3, 4), ("analyze", "--json"), INCONSISTENT),
    (Family("wide", 3, 4), ("verify",), OK),
    (Family("cap", 6, 10), ("analyze",), OK),
    (Family("cap", 6, 10), ("analyze", "--json"), OK),
    (Family("cap", 6, 10), ("verify",), OK),
    (Family("sz", 19, 2), ("analyze", "--json"), OK),
    (Family("sz", 19, 2), ("verify",), OK),
    (Family("sz", 40, 2), ("verify", *BIG), OOM),
    (Family("sz", 40, 2), ("conditional", "--family", "O1", "--event", "t40:+z", "--given", "t1:+z", *BIG), OOM),
)
QUICK = (
    (Family("heisenberg", 2, 4), ("analyze",), OK),
    (Family("dense", 2, 4), ("verify",), OK),
    (Family("wide", 1, 4), ("validate",), OK),
    (Family("cap", 2, 10), ("analyze", "--json"), OK),
    (Family("sz", 4, 2), ("verify",), OK),
    (Family("sz", 40, 2), ("verify", *BIG), OOM),
)
FLOOR_FILE = ROOT / "scenarios" / "stable_facts.json"
# ``import qhist.cli`` in a process that finds no bytecode of qhist's own, as
# one started with PYTHONDONTWRITEBYTECODE set and no cache does: qhist's
# directory in the bytecode cache is moved aside for the import and back after
# it, and nothing is written, so numpy and the stdlib read theirs, and the
# other commands find qhist's.
COMPILING = """\
import importlib.util, os, sys
sys.dont_write_bytecode = True
cache = os.path.dirname(importlib.util.cache_from_source(importlib.util.find_spec("qhist").origin))
os.rename(cache, cache + ".aside")
try:
    import qhist.cli
finally:
    os.rename(cache + ".aside", cache)
"""
FLOOR = (
    ("python -c pass", ["-c", "pass"]),
    ("import numpy", ["-c", "import numpy"]),
    ("import qhist.cli", ["-c", "import qhist.cli"]),
    ("import qhist.cli, qhist compiled", ["-c", COMPILING]),
    (f"qhist validate {FLOOR_FILE.name}", ["-m", "qhist.cli", "validate", str(FLOOR_FILE)]),
)


def write_families(rows, seed: int, out_dir: pathlib.Path) -> dict[Family, pathlib.Path]:
    """Each distinct family of ``rows``, generated from ``seed``, as a scenario file in ``out_dir``."""
    families = list(dict.fromkeys(family for family, _, _ in rows))
    scenarios = {}
    for family in families:
        gen = np.random.default_rng([seed, list(BUILDERS).index(family.kind), family.slots, family.outcomes])
        scenarios[f"{family.kind}_{family.slots}_{family.outcomes}"] = BUILDERS[family.kind](
            gen, family.slots, family.outcomes)
    return dict(zip(families, write(scenarios, out_dir).values()))


def run(tree: pathlib.Path, argv: list[str], pycache: str) -> dict:
    """``peak.measure`` of the interpreter ``argv`` from ``tree``, in a small
    process of its own under ``RLIMIT_AS``."""
    proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps([RLIMIT_AS, str(tree), argv, pycache])],
                          env={**os.environ, "PYTHONPATH": str(SCRIPTS)}, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def outcome(result: dict) -> str:
    """``exit N``, with "(out of memory)" when the command said so; ``signal N`` when one ended it."""
    if result["code"] < 0:
        return f"signal {-result['code']}"
    return f"exit {result['code']}" + (" (out of memory)" if "out of memory" in result["stderr"] else "")


def measure_all(trees: list[pathlib.Path], jobs: list[list[str]], repeat: int) -> list[list[list[dict]]]:
    """Per tree, per job, ``repeat`` results; the trees alternate which runs
    first from job to job and from round to round, each tree with a fresh
    bytecode cache that an unreported ``import qhist.cli`` fills first."""
    results = [[[] for _ in jobs] for _ in trees]
    with tempfile.TemporaryDirectory(prefix="scale-pycache-") as caches:
        pycaches = [os.path.join(caches, str(k)) for k in range(len(trees))]
        for tree, pycache in zip(trees, pycaches):
            run(tree, ["-c", "import qhist.cli"], pycache)
        for r in range(repeat):
            for j, argv in enumerate(jobs):
                order = range(len(trees)) if (r + j) % 2 == 0 else reversed(range(len(trees)))
                for k in order:
                    results[k][j].append(run(trees[k], argv, pycaches[k]))
    return results


def table(names: list[str], rows, results) -> list[str]:
    """The report's lines: one per row of (family, N, command, expected
    outcome), with each tree's outcome, median seconds and median peak MB."""
    head = ["family", "N", "command", "expected"]
    for name in names:
        head += [f"{name} outcome".strip(), f"{name} s".strip(), f"{name} MB".strip()]
    if len(names) == 2:
        head.append(f"s {names[1]}/{names[0]}")
    head += ["out B", "sha256", "mark"]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for (family, n, command, expected), per_tree in zip(rows, zip(*results)):
        cells = [family, n, command, expected]
        seconds = [statistics.median(r["seconds"] for r in runs) for runs in per_tree]
        for runs, median_s in zip(per_tree, seconds):
            cells += [" / ".join(sorted({outcome(r) for r in runs})), f"{median_s:.2f}",
                      f"{statistics.median(r['peak_mb'] for r in runs):.1f}"]
        if len(names) == 2:
            cells.append(f"{seconds[1] / seconds[0]:.3f}")
        outputs = {(str(r["bytes"]), r["sha256"]) for runs in per_tree for r in runs}
        cells += next(iter(outputs)) if len(outputs) == 1 else ("varies", "varies")
        marks = {"DIFFERS": any(outcome(r) != expected for runs in per_tree for r in runs),
                 "OUTPUT DIFFERS": len(outputs) > 1}
        cells.append(", ".join(mark for mark, on in marks.items() if on))
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0, help="seed of the generated families (default 0)")
    p.add_argument("--quick", action="store_true", help="each family at its smallest size")
    p.add_argument("--compare", nargs=2, type=pathlib.Path, metavar=("PARENT", "CHANGE"),
                   help=f"run both trees, alternating, {REPEAT} times each, and print medians")
    args = p.parse_args(argv)
    trees = args.compare or [ROOT]
    names = ["parent", "change"] if args.compare else [""]
    ladder = QUICK if args.quick else LADDER
    with tempfile.TemporaryDirectory(prefix="scale-") as tmp:
        paths = write_families(ladder, args.seed, pathlib.Path(tmp))
        rows = [("floor", "-", command, OK) for command, _ in FLOOR]
        jobs = [interpreter_argv for _, interpreter_argv in FLOOR]
        for family, (command, *options), expected in ladder:
            rows.append((family.label, str(family.n_histories), " ".join((command, *options)), expected))
            jobs.append(["-m", "qhist.cli", command, str(paths[family]), *options])
        results = measure_all(trees, jobs, REPEAT if args.compare else 1)
    print(f"# seed {args.seed}; RLIMIT_AS {RLIMIT_AS / GB:g} GB; {len(jobs)} commands, "
          f"{REPEAT if args.compare else 1} run(s) each per tree; Python {platform.python_version()}, "
          f"numpy {np.__version__}, {os.cpu_count()} CPUs")
    for name, tree in zip(names, trees):
        print(f"# {name or 'tree'}: {tree.resolve()}")
    print(*table(names, rows, results), sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
