"""``scripts/ab.py``: each tree's own ``qhist`` runs, side by side in one
process, and a claim it cannot judge is refused before anything runs."""

import importlib.util
import pathlib
import shutil
import sys

import pytest

import qhist

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@pytest.fixture
def loaded():
    """Loads trees as ``ab`` does, and drops their packages from ``sys.modules`` afterwards."""
    yield lambda tree, side: ab.load_tree(tree, f"qhist_{side}")
    for name in [name for name in sys.modules if name.split(".")[0] in ("qhist_parent", "qhist_change")]:
        del sys.modules[name]


def tree(tmp_path, name: str, edit=None) -> pathlib.Path:
    """A copy of this repository's ``src/qhist`` under ``tmp_path/name``, its ``cli.py`` edited by ``edit``."""
    src = tmp_path / name / "src" / "qhist"
    shutil.copytree(ROOT / "src" / "qhist", src, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        cli = src / "cli.py"
        cli.write_text(edit(cli.read_text()))
    return tmp_path / name


def test_each_tree_runs_its_own_package(tmp_path, loaded):
    parent = tree(tmp_path, "parent", lambda text: text + 'TREE = "parent"\n')
    change = tree(tmp_path, "change", lambda text: text.replace('"ok: scenario ', '"OK: scenario ')
                  + 'TREE = "change"\n')
    clis = {"parent": loaded(parent, "parent"), "change": loaded(change, "change")}
    for side, cli in clis.items():
        assert cli.TREE == side
        assert pathlib.Path(cli.__file__) == tmp_path / side / "src" / "qhist" / "cli.py"
        assert cli.resolve.__module__ == f"qhist_{side}.scenario"  # its submodules are its own too
    assert clis["parent"].resolve is not clis["change"].resolve
    assert sys.modules["qhist"] is qhist  # the plain package is left alone
    workloads = ab.load_workloads(ROOT, "qhist_change")
    assert sys.modules["qhist"] is qhist
    metrics, differ = ab.run_seed(clis, workloads, ROOT, "gallery", 1, 0.01)
    # validate and verify print the edited line, once for each of the gallery's six scenarios
    assert sorted(line.split()[0] for line in differ) == ["validate"] * 6 + ["verify"] * 6
    assert set(metrics["parent"]) == set(metrics["change"]) == set(ab.METRICS)


def test_one_tree_against_itself_prints_the_same(loaded):
    clis = {side: loaded(ROOT, side) for side in ab.SIDES}
    workloads = ab.load_workloads(ROOT, "qhist_change")
    metrics, differ = ab.run_seed(clis, workloads, ROOT, "observers", 1, 0.01)
    assert differ == []
    assert all(value > 0 for side in ab.SIDES for value in metrics[side].values())


@pytest.mark.parametrize(
    "claim",
    ["observrs:classify_ms.p50", "gallery:classify_ms.p50", "observers:peak_rss_mb", "observers"],
    ids=["misspelled_workload", "workload_not_run", "per_process_metric", "no_metric"],
)
def test_claim_not_judged_is_refused_before_any_run(claim, tmp_path):
    argv = [str(tmp_path / "absent"), str(ROOT), "--workload", "observers", "--seeds", "1-10", "--claim", claim]
    with pytest.raises(SystemExit) as info:
        ab.main(argv)
    assert claim in str(info.value.code)


def test_each_seeds_ratio_is_printed_beside_an_unchanged_verdict(monkeypatch, capsys):
    """Made-up seeds whose speed drifts on both sides, the change at 0.8 of
    the parent on each: every row shows the seeds' ratios at 0.8 with no
    spread, and the claim is judged by ``bench_pairs.py``'s rule as before,
    which finds the gap inside the parent's quartile range."""
    drift = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.6, 1.8]

    def run_seed(clis, workloads, root, workload, seed, seconds):
        parent = {name: drift[seed - 1] for name in ab.METRICS}
        return {"parent": parent, "change": {name: 0.8 * value for name, value in parent.items()}}, []

    monkeypatch.setattr(ab, "load_tree", lambda tree, name: None)
    monkeypatch.setattr(ab, "load_workloads", lambda tree, package: None)
    monkeypatch.setattr(ab, "run_seed", run_seed)
    argv = ["PARENT", str(ROOT), "--workload", "gallery", "--seeds", "1-10", "--claim", "gallery:validate_ms.p50"]
    assert ab.main(argv) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("gallery: ") and "/10" in line]
    assert len(rows) == len(ab.METRICS)
    assert all(" 0.800 0.800-0.800 10/10" in row for row in rows)
    assert [row.split()[1] for row in rows if "claim NOT met" in row] == ["validate_ms.p50"]
