"""``scripts/bench_pairs.py``: the claim rule, the regression bound, the
refusals made before anything runs and each run's environment.  No
benchmark is run here; the runs a test needs are made up."""

import importlib.util
import json
import pathlib
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize(
    "claim",
    ["observrs:classify_ms.p50", "gallery:classify_ms.p50", "observers:classify_ms", "observers"],
    ids=["misspelled_workload", "workload_not_run", "not_end_to_end", "no_metric"],
)
def test_claim_not_judged_is_refused_before_any_run(claim, tmp_path):
    argv = [str(tmp_path / "absent"), str(ROOT), "--workload", "observers", "--seeds", "2-11", "--claim", claim]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    assert claim in str(info.value.code)


PARENT = [0.8, 0.85, 0.9, 0.95, 1.0, 1.0, 1.05, 1.1, 1.15, 1.2]  # median 1.0, quartiles 0.9125-1.0875


@pytest.mark.parametrize(
    "change, met",
    [
        ([0.5] * 9 + [1.5], True),  # nine wins, gap 0.5
        ([0.5] * 8 + [1.5] * 2, False),  # eight wins
        ([p - 0.01 for p in PARENT[:9]] + [1.5], False),  # nine wins, gap 0.01
    ],
    ids=["nine_wins", "eight_wins", "gap_inside_range"],
)
def test_gain_needs_nine_wins_and_a_gap_beyond_the_parent_range(change, met):
    summary = bench_pairs.summarize(PARENT, change, lower_is_better=True)
    assert (summary["parent_q1"], summary["parent_q3"]) == pytest.approx((0.9125, 1.0875))
    assert bench_pairs.gain(summary, lower_is_better=True) is met
    flipped = bench_pairs.summarize([-x for x in PARENT], [-x for x in change], lower_is_better=False)
    assert bench_pairs.gain(flipped, lower_is_better=False) is met


def test_recorded_command_parses_back_to_the_same_arguments():
    argv = ["P", "C", "--workload", "observers", "--workload", "gallery", "--seeds", "12-21",
            "--claim", "observers:classify_ms.p50", "--out", "BENCH_10.json"]
    command = bench_pairs._command(bench_pairs._parse_args(argv)).split()
    assert command[:2] == ["python3", "scripts/bench_pairs.py"]
    assert command[4:] == argv[2:]


@pytest.mark.parametrize(
    "parent, change, lower_is_better, bound, worse",
    [
        ([1.0] * 10, [1.3] * 10, True, 0.25, True),  # 30 % slower
        ([1.0] * 10, [1.2] * 10, True, 0.25, False),  # 20 % slower, inside the bound
        ([1.0] * 10, [0.5] * 10, True, 0.25, False),  # faster
        ([40.0] * 10, [42.5] * 10, True, 0.05, True),  # 6.25 % more memory
        ([40.0] * 10, [41.5] * 10, True, 0.05, False),  # 3.75 % more memory
        ([1.0] * 10, [0.7] * 10, False, 0.25, True),  # higher is better: 30 % lower
        ([1.0] * 10, [1.3] * 10, False, 0.25, False),  # higher is better: higher
    ],
    ids=["slower_past_bound", "slower_inside_bound", "faster", "memory_past_bound", "memory_inside_bound",
         "higher_better_past_bound", "higher_better_improved"],
)
def test_a_median_worse_than_the_bound_is_a_regression(parent, change, lower_is_better, bound, worse):
    summary = bench_pairs.summarize(parent, change, lower_is_better)
    assert bench_pairs.regressed(summary, lower_is_better, bound) is worse


def made_up_trees(tmp_path) -> tuple[pathlib.Path, pathlib.Path]:
    """A parent and a change tree that hold only ``BENCHMARK.json``, for runs
    that are made up: this tree's own ``src/`` may hold bytecode."""
    trees = tmp_path / "parent", tmp_path / "change"
    for tree in trees:
        tree.mkdir()
        (tree / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    return trees


@pytest.mark.parametrize("slower, code", [(1.3, 1), (1.2, 0)], ids=["past_bound", "inside_bound"])
def test_a_regression_fails_the_run(slower, code, monkeypatch, capsys, tmp_path):
    """Made-up runs: every metric reads 1.0 in both trees, except the
    change's ``wall_s``, whose bound in ``BENCHMARK.json`` is 0.25."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    parent, change = made_up_trees(tmp_path)

    def run(tree, workload, seed, seconds):
        value = {n: slower if n == "wall_s" and tree == change else 1.0 for n in names}
        return {"metrics": {n: {"value": v} for n, v in value.items()}, "failed": 0, "correct": True}, {}

    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "observers", "--seeds", "2-11", "--out", str(out)]
    assert bench_pairs.main(argv) == code
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("observers: wall_s")]
    assert ("WORSE than the 0.25 bound" in printed[0]) is bool(code)
    assert f" {slower:.3f} {slower:.3f}-{slower:.3f} " in printed[0]  # each pair's ratio
    recorded = json.loads(out.read_text())["pairs"]["observers"]
    assert recorded["regressed"] == (["wall_s"] if code else [])
    assert recorded["summary"]["wall_s"]["pair_ratio_median"] == pytest.approx(slower)


def test_each_run_compiles_the_trees_and_nothing_else(monkeypatch, tmp_path):
    """Faked runs: each child has the caller's environment with bytecode
    writing off and no ``PYTHONPYCACHEPREFIX``, even when the caller sets
    one, so numpy and the standard library read their installed bytecode."""
    parent, change = made_up_trees(tmp_path)
    envs = []

    def fake_run(argv, cwd, env, **kwargs):
        envs.append(env)
        return types.SimpleNamespace(returncode=0, stdout='{"metrics": {}, "failed": 0, "correct": true}\n',
                                     stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("BENCH_PAIRS_TEST", "kept")
    assert bench_pairs.main([str(parent), str(change), "--workload", "observers", "--seeds", "2-3"]) == 0
    assert len(envs) == 4
    for env in envs:
        assert env["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPYCACHEPREFIX" not in env
        assert env["BENCH_PAIRS_TEST"] == "kept"


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("cache", ["src/qhist/__pycache__", "perfbench/__pycache__"])
def test_a_tree_holding_bytecode_is_refused_before_any_run(side, cache, monkeypatch, tmp_path):
    trees = dict(zip(("parent", "change"), made_up_trees(tmp_path)))
    (trees[side] / cache).mkdir(parents=True)
    runs = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: runs.append(a))
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([str(trees["parent"]), str(trees["change"]), "--workload", "observers", "--seeds", "2-3"])
    assert str(trees[side] / cache) in str(info.value.code)
    assert runs == []


WIDE = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.6, 1.8]  # median 1.0, quartiles 0.725-1.35


@pytest.mark.parametrize(
    "parent, change, lower_is_better, bound, flagged",
    [
        (PARENT, [1.0] * 10, True, 0.25, False),  # both ranges inside 0.25 of the median
        (PARENT, [1.0] * 10, True, 0.1, True),  # the parent's range, 0.175, exceeds 0.1
        ([1.0] * 10, WIDE, True, 0.25, True),  # the change's range, 0.625, exceeds 0.25
        ([1.0] * 10, [0.9 * x for x in WIDE], True, 0.25, True),  # one change run beats no parent run
        ([2.0] * 10, WIDE, True, 0.25, False),  # every change run beats every parent run
        (WIDE, [x + 2.0 for x in WIDE], True, 0.25, True),  # every change run is worse
        (WIDE, [x + 2.0 for x in WIDE], False, 0.25, False),  # higher is better: every change run wins
    ],
    ids=["ranges_inside_bound", "parent_range_past_bound", "change_range_past_bound", "overlapping_runs",
         "change_beats_every_parent_run", "change_loses_every_run", "higher_better_wins_every_run"],
)
def test_a_quartile_range_past_the_bound_is_unresolved(parent, change, lower_is_better, bound, flagged):
    summary = bench_pairs.summarize(parent, change, lower_is_better)
    assert bench_pairs.unresolved(summary, parent, change, lower_is_better, bound) is flagged


@pytest.mark.parametrize("wide", [True, False], ids=["wide_parent", "tight_parent"])
def test_an_unresolved_metric_is_printed_and_recorded_but_does_not_fail_the_run(wide, monkeypatch, capsys, tmp_path):
    """Made-up runs: every metric reads 1.0 in both trees, except the
    parent's ``wall_s``, which spreads as ``WIDE`` when ``wide``."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    parent, change = made_up_trees(tmp_path)

    def run(tree, workload, seed, seconds):
        spread = WIDE[seed - 2] if wide and tree == parent else 1.0
        value = {n: spread if n == "wall_s" else 1.0 for n in names}
        return {"metrics": {n: {"value": v} for n, v in value.items()}, "failed": 0, "correct": True}, {}

    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "observers", "--seeds", "2-11", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("observers: wall_s")]
    assert ("unresolved" in printed[0]) is wide
    assert json.loads(out.read_text())["pairs"]["observers"]["unresolved"] == (["wall_s"] if wide else [])


def test_each_pairs_ratio_is_summarized_beside_an_unchanged_verdict():
    """Runs that drift across seeds as ``WIDE`` on both sides, the change at
    0.8 of the parent in every pair: the pair ratios read 0.8 with no
    spread, while the claim rule, which takes the parent's quartile range,
    still finds the gap of 0.2 inside it."""
    change = [0.8 * x for x in WIDE]
    summary, row, met, worse, spread = bench_pairs.judge("wall_s", WIDE, change, True, 0.25, claimed=True)
    assert (summary["pair_ratio_q1"], summary["pair_ratio_median"], summary["pair_ratio_q3"]) == pytest.approx(
        (0.8, 0.8, 0.8))
    assert (met, worse, spread) == (False, False, True)
    assert " 0.800 0.800-0.800 10/10 claim NOT met" in row


def test_pair_ratio_quartiles_are_of_the_ratios_not_of_the_medians():
    parent = [1.0, 2.0, 4.0, 8.0, 16.0]
    change = [0.5, 1.8, 4.0, 6.0, 20.0]  # ratios 0.5, 0.9, 1.0, 0.75, 1.25
    summary = bench_pairs.summarize(parent, change, lower_is_better=True)
    assert (summary["pair_ratio_q1"], summary["pair_ratio_median"], summary["pair_ratio_q3"]) == pytest.approx(
        (0.75, 0.9, 1.0))
    assert summary["change_over_parent"] == pytest.approx(1.0)
