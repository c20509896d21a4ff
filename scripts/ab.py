"""Time two source trees' commands against each other in one process.

    python3 scripts/ab.py PARENT_TREE CHANGE_TREE --workload gallery --seeds 1-10 \\
        --claim gallery:validate_ms.p50

Each tree's ``src/qhist`` is loaded as a package of its own,
``qhist_parent`` and ``qhist_change``, from its own files (qhist's imports
are relative), so both run in this one process.  ``bench_pairs.py`` runs
each tree in a process of its own, one after the other, and so reads the
machine's drift and any per-process offset as a difference between the
trees; here both trees share the process and the minute.

For each workload and each seed in the inclusive range, the workload is
generated once by the change tree's ``perfbench/workloads.py``, which is
only read (it imports ``qhist``, which then names the change tree's
package), and written to a temporary directory.  Commands marked
``known_defect`` are left out, as ``perfbench/run.py`` leaves them out of its
timed passes.  Both trees first run the workload's warm-up commands and one
untimed pass, in which every command must give both trees the same exit
code, stdout and stderr.  Then passes of the command list run until
``SECONDS`` of command time is spent, both trees together: each command
runs in both trees back to back, and which tree runs first alternates from
command to command and from pass to pass.  Each command keeps its best time
per tree, a running minimum.  As in ``perfbench/run.py``, a kind's
``<kind>_ms.p50`` is the median of its commands' best times and ``wall_s``
their sum.

Each seed gives one pair of runs per metric, judged by ``bench_pairs.py``'s
rules and the bounds of the change tree's ``BENCHMARK.json``: a claimed
gain needs nine wins of ten pairs and a median gap larger than the parent's
interquartile range; a median worse than its bound is flagged as a
regression, and a spread wider than its bound as unresolved.  Each row
also shows the median and quartiles of the seeds' change/parent ratios,
which the machine's drift from seed to seed leaves alone.  The
per-process metrics ``setup_s`` and ``peak_rss_mb`` are ``bench_pairs.py``'s
to measure.  The exit code is 0 when both trees printed the same on every
command, nothing regressed and every claim is met, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import pathlib
import statistics
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_pairs import _seeds, judge_workload, read_claims  # noqa: E402

SIDES = ("parent", "change")
KINDS = ("validate", "analyze", "classify", "conditional", "verify")
METRICS = ("wall_s", *(f"{kind}_ms.p50" for kind in KINDS))
SECONDS = 5.0  # command time per seed, both trees together


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=pathlib.Path, help="source tree of the parent commit")
    p.add_argument("change", type=pathlib.Path, help="source tree of the change")
    p.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    p.add_argument("--seeds", type=_seeds, required=True, help="inclusive range A-B, one pair per seed")
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                   help="a metric whose gain is claimed on a workload")
    return p.parse_args(argv)


def load_tree(tree: pathlib.Path, name: str):
    """The ``cli`` module of ``tree``'s ``src/qhist``, loaded as the package ``name``."""
    src = tree.resolve() / "src" / "qhist"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def load_workloads(tree: pathlib.Path, package: str):
    """``tree``'s ``perfbench/workloads.py``, importing ``qhist`` as the loaded ``package``."""
    aliases = {"qhist": package, "qhist.framework": f"{package}.framework",
               "qhist.scenario": f"{package}.scenario"}
    saved = {name: sys.modules.get(name) for name in (*aliases, "workloads")}
    spec = importlib.util.spec_from_file_location("workloads", tree.resolve() / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    try:
        sys.modules.update({alias: sys.modules[name] for alias, name in aliases.items()})
        sys.modules["workloads"] = workloads  # its dataclasses look the module up by name
        spec.loader.exec_module(workloads)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return workloads


def run_command(cli, argv: list[str]) -> tuple[float, tuple]:
    """One call of ``cli.main``, timed as ``perfbench/run.py`` times it, and
    its exit code (or uncaught exception's name), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # the command failed; its outcome says how
        code = type(exc).__name__
    seconds = time.perf_counter() - started
    return seconds, (code, out.getvalue(), err.getvalue())


def run_seed(clis: dict, workloads, root: pathlib.Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, list]:
    """Each side's metrics on one seed's workload, and the commands whose output differs."""
    scenarios, cmds = workloads.generate(workload, seed, root)
    cmds = [cmd for cmd in cmds if not cmd.known_defect]
    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        paths = workloads.write(scenarios, pathlib.Path(tmp))
        warm_scenarios, warm_cmds = workloads.warm_up()
        warm_paths = workloads.write(warm_scenarios, pathlib.Path(tmp))
        argvs = [cmd.argv(paths) for cmd in cmds]
        for cli in clis.values():
            for cmd in warm_cmds:
                run_command(cli, cmd.argv(warm_paths))
        outcomes = {side: [run_command(cli, argv)[1] for argv in argvs] for side, cli in clis.items()}
        differ = [" ".join([cmd.kind, cmd.scenario, *cmd.args])
                  for cmd, a, b in zip(cmds, *outcomes.values()) if a != b]
        best = {side: [float("inf")] * len(argvs) for side in clis}
        spent, npass = 0.0, 0
        while spent < seconds:
            for i, argv in enumerate(argvs):
                order = SIDES if (i + npass + seed) % 2 == 0 else SIDES[::-1]
                for side in order:
                    took = run_command(clis[side], argv)[0]
                    best[side][i] = min(best[side][i], took)
                    spent += took
            npass += 1
    metrics = {}
    for side in clis:
        metrics[side] = {"wall_s": sum(best[side])}
        for kind in KINDS:
            kind_ms = [b * 1e3 for cmd, b in zip(cmds, best[side]) if cmd.kind == kind]
            if kind_ms:
                metrics[side][f"{kind}_ms.p50"] = statistics.median(kind_ms)
    return metrics, differ


def main(argv=None) -> int:
    args = _parse_args(argv)
    _, judged, claims = read_claims(args.change, args.workload, args.claim, METRICS)
    clis = {side: load_tree(tree, f"qhist_{side}") for side, tree in zip(SIDES, (args.parent, args.change))}
    workloads = load_workloads(args.change, "qhist_change")
    ok = True
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for seed in args.seeds:
            metrics, differ = run_seed(clis, workloads, args.change, workload, seed, SECONDS)
            for side in SIDES:
                runs[side].append(metrics[side])
            for line in differ:
                print(f"{workload} seed {seed}: the trees print differently on: {line}")
            ok = ok and not differ
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name} {metrics['parent'][name]:.5g}/{metrics['change'][name]:.5g}"
                for name in sorted(metrics["parent"])), flush=True)
        _, worse, _, met = judge_workload(workload, runs["parent"], runs["change"], judged, claims)
        ok = ok and met and not worse
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
