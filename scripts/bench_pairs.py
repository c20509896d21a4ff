"""Run alternating benchmark pairs of two source trees and judge a claimed gain.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload observers \\
        --seeds 2-11 --claim observers:classify_ms.p50 --out BENCH_10.json

For each workload and each seed in the inclusive range, the script runs
``python3 <tree>/perfbench/run.py --workload W --seed S --seconds N`` once in
each tree, one after the other, where N is ``run_seconds`` of the change
tree's ``BENCHMARK.json``.  The parent runs first on even seeds and the
change on odd ones, so that a drift in machine speed falls on both sides.
Each tree runs its own ``perfbench/`` against its own ``src/``; this script
only reads them and ``BENCHMARK.json``, which also names the end-to-end
metrics and whether lower or higher is better.  Each run has the caller's
environment with ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``,
as a run of ``BENCHMARK.json``'s command has, and a tree with a
``__pycache__`` under ``src/`` or ``perfbench/`` is refused before anything
runs: both trees compile their own code at every start, and read numpy's and
the standard library's installed bytecode.

It prints, per workload and metric, both sides' medians and quartiles (the
inclusive method of ``statistics.quantiles``), the ratio of the medians, the
median and quartiles of each pair's change/parent ratio, and the number of
pairs in which the change was better.  The pair ratios are shown and
recorded beside the verdicts, not judged: a drift in machine speed from seed
to seed widens each side's quartiles but not theirs.  A gain counts when the
change is better in at least nine pairs of ten and the gap between the
medians, in the better direction, is larger than the parent's interquartile
range; each ``--claim WORKLOAD:METRIC`` is judged that way, and a claim on a
metric that is not end-to-end or on a workload not run is refused before
anything runs.  Every metric whose change median is worse than the parent's
by more than its ``bound`` in ``BENCHMARK.json`` (a share of the parent's
median) is flagged as a regression.  A metric is flagged unresolved when the
parent's or the change's interquartile range exceeds its ``bound`` times the
parent's median, unless every change run beats every parent run: the runs
then spread too widely to tell a shift of the bound, and its verdict says
little.  ``--out`` writes the runs and the summary, pair ratios included, as
JSON, in the layout of ``BENCH_9.json``, with the command that made it (the
two trees written as PARENT_TREE and CHANGE_TREE) and each workload's
regressed and unresolved metrics.  The exit code is 0 when every run is
correct, no command failed, no metric regressed and every claim is met, else
1; an unresolved metric does not change it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from collections.abc import Iterable

WIN_SHARE = 0.9  # nine pairs of ten


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=pathlib.Path, help="source tree of the parent commit")
    p.add_argument("change", type=pathlib.Path, help="source tree of the change")
    p.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    p.add_argument("--seeds", type=_seeds, required=True, help="inclusive range A-B")
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                   help="a metric whose gain is claimed on a workload")
    p.add_argument("--out", type=pathlib.Path, help="write the runs and summary here")
    return p.parse_args(argv)


def _command(args) -> str:
    """The command line that makes the same file, the trees left as names."""
    words = ["python3", "scripts/bench_pairs.py", "PARENT_TREE", "CHANGE_TREE"]
    words += [w for workload in args.workload for w in ("--workload", workload)]
    words += ["--seeds", f"{args.seeds[0]}-{args.seeds[-1]}"]
    words += [w for claim in args.claim for w in ("--claim", claim)]
    if args.out:
        words += ["--out", str(args.out)]
    return " ".join(words)


def run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: its JSON result and the machine line it printed."""
    argv = [sys.executable, str(tree.resolve() / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"} | {"PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    machine = next((json.loads(line.partition(" ")[2]) for line in lines if line.startswith("machine: ")), {})
    return json.loads(lines[-1]), machine


def summarize(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    def quartiles(xs):
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
        return q1, q3

    ratios = [c / p for p, c in zip(parent, change)]  # each pair's, which a drift across pairs leaves alone
    (p1, p3), (c1, c3), (r1, r3) = quartiles(parent), quartiles(change), quartiles(ratios)
    pm, cm = statistics.median(parent), statistics.median(change)
    better = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    return {
        "change_better_pairs": better,
        "change_median": cm,
        "change_over_parent": cm / pm if pm else None,
        "change_q1": c1,
        "change_q3": c3,
        "pair_ratio_median": statistics.median(ratios),
        "pair_ratio_q1": r1,
        "pair_ratio_q3": r3,
        "pairs": len(parent),
        "parent_median": pm,
        "parent_q1": p1,
        "parent_q3": p3,
    }


def gain(summary: dict, lower_is_better: bool) -> bool:
    """The change wins at least nine pairs of ten and its median beats the
    parent's by more than the parent's interquartile range."""
    gap = summary["parent_median"] - summary["change_median"]
    if not lower_is_better:
        gap = -gap
    wins = summary["change_better_pairs"] >= WIN_SHARE * summary["pairs"]
    return wins and gap > summary["parent_q3"] - summary["parent_q1"]


def regressed(summary: dict, lower_is_better: bool, bound: float) -> bool:
    """The change's median is worse than the parent's by more than ``bound``
    times the parent's median."""
    worse = summary["change_median"] - summary["parent_median"]
    if not lower_is_better:
        worse = -worse
    return worse > bound * abs(summary["parent_median"])


def unresolved(summary: dict, parent: list[float], change: list[float], lower_is_better: bool, bound: float) -> bool:
    """Either side's interquartile range exceeds ``bound`` times the
    parent's median, and some change run does not beat every parent run."""
    spread = max(summary["parent_q3"] - summary["parent_q1"], summary["change_q3"] - summary["change_q1"])
    if spread <= bound * abs(summary["parent_median"]):
        return False
    apart = max(change) < min(parent) if lower_is_better else min(change) > max(parent)
    return not apart


HEADER = (f"{'metric':18} {'parent med':>11} {'q1-q3':>21} {'change med':>11} {'q1-q3':>21} {'ratio':>6} "
          f"{'pair ratio':>10} {'q1-q3':>11} wins")


def judge(name: str, parent: list[float], change: list[float], lower_is_better: bool, bound: float,
          claimed: bool) -> tuple[dict, str, bool, bool, bool]:
    """One metric's summary, its row under ``HEADER``, and whether a claim
    on it (when ``claimed``) is met, it regressed, and it is unresolved."""
    s = summarize(parent, change, lower_is_better)
    met = not claimed or gain(s, lower_is_better)
    worse = regressed(s, lower_is_better, bound)
    spread = unresolved(s, parent, change, lower_is_better, bound)
    verdict = ("claim met" if met else "claim NOT met") if claimed else ""
    if worse:
        verdict = f"{verdict} WORSE than the {bound:g} bound".lstrip()
    if spread:
        verdict = f"{verdict} unresolved: a quartile range exceeds the {bound:g} bound".lstrip()
    row = (f"{name:18} {s['parent_median']:11.5g} {s['parent_q1']:10.5g}-{s['parent_q3']:<10.5g} "
           f"{s['change_median']:11.5g} {s['change_q1']:10.5g}-{s['change_q3']:<10.5g} "
           f"{s['change_over_parent']:6.3f} {s['pair_ratio_median']:10.3f} "
           f"{s['pair_ratio_q1']:5.3f}-{s['pair_ratio_q3']:<5.3f} {s['change_better_pairs']}/{s['pairs']} {verdict}")
    return s, row, met, worse, spread


def read_claims(tree: pathlib.Path, workloads: list[str], claim_args: list[str],
                judged: Iterable[str] | None = None) -> tuple[dict, dict, set]:
    """``tree``'s ``BENCHMARK.json``, its end-to-end metrics that may be
    judged (all, or those in ``judged``) mapped to whether lower is better
    and their bound, and the claims as (workload, metric) pairs.  A claim on
    a workload not run or a metric not judged is refused, before anything
    runs."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]
               if judged is None or m["name"] in judged}
    unknown = [c for c in claim_args
               if ":" not in c or c.split(":", 1)[0] not in workloads or c.split(":", 1)[1] not in metrics]
    if unknown:
        raise SystemExit(f"not WORKLOAD:METRIC of a workload run and a metric judged here: {', '.join(unknown)}")
    return spec, metrics, {tuple(c.split(":", 1)) for c in claim_args}


def judge_workload(workload: str, parent: list[dict], change: list[dict], metrics: dict,
                   claims: set) -> tuple[dict, list[str], list[str], bool]:
    """Judge each metric of ``metrics`` that the runs hold, one dict per run
    and side in pair order, printing a row under ``HEADER`` for each: the
    summaries, the metrics that regressed and those unresolved, and whether
    every claim on ``workload`` is met."""
    print(f"\n{workload}: {HEADER}")
    summary, worse, spread, met = {}, [], [], True
    for name in sorted(metrics.keys() & parent[0].keys()):
        lower_is_better, bound = metrics[name]
        summary[name], row, claim_met, is_worse, is_spread = judge(
            name, [run[name] for run in parent], [run[name] for run in change], lower_is_better, bound,
            (workload, name) in claims)
        if is_worse:
            worse.append(name)
        if is_spread:
            spread.append(name)
        print(f"{workload}: {row}")
        met = met and claim_met
    return summary, worse, spread, met


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec, metrics, claims = read_claims(args.change, args.workload, args.claim)
    for tree in (args.parent, args.change):  # its runs would read this bytecode while the other tree's compile
        cached = sorted(str(p) for d in ("src", "perfbench") for p in (tree / d).rglob("__pycache__"))
        if cached:
            raise SystemExit(f"{tree} holds bytecode that its runs would read; remove it first: {', '.join(cached)}")
    seconds = spec["run_seconds"]
    doc = {
        "about": f"Alternating pairs: each seed ran python3 perfbench/run.py --workload W --seed S "
                 f"--seconds {seconds} once in each tree, the parent first on even seeds and the change "
                 f"first on odd ones. 'runs' holds each run's end-to-end metrics, 'summary' each "
                 f"metric's medians, quartiles (inclusive method) and the pairs the change won.",
        "command": _command(args),
        "machine": {},
        "pairs": {},
    }
    ok = True
    for workload in args.workload:
        runs = {"change": {}, "parent": {}}
        failed = {"change": 0, "parent": 0}
        correct = True
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                result, machine = run(tree, workload, seed, seconds)
                doc["machine"] = doc["machine"] or machine
                runs[side][str(seed)] = {name: m["value"] for name, m in sorted(result["metrics"].items())}
                failed[side] += result["failed"]
                correct = correct and result["correct"]
                print(f"{workload} seed {seed} {side}: correct={result['correct']} failed={result['failed']}",
                      flush=True)
        seeds = [str(s) for s in args.seeds]
        summary, worse, spread, met = judge_workload(
            workload, [runs["parent"][s] for s in seeds], [runs["change"][s] for s in seeds], metrics, claims)
        ok = ok and met and correct and not any(failed.values()) and not worse
        doc["pairs"][workload] = {"all_correct": correct, "failed": failed, "regressed": worse, "runs": runs,
                                  "seeds": list(args.seeds), "summary": summary, "unresolved": spread}
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
