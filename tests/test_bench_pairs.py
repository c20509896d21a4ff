"""``scripts/bench_pairs.py``: the claim rule and the refusals made before
anything runs.  No benchmark is run here."""

import importlib.util
import pathlib

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
