"""Byte-for-byte CLI output of the benchmark workloads' commands.

``golden/gallery_cli.json`` and ``golden/observers_cli.json`` hold the exit
code, stdout and stderr of each gallery and ``observers`` command, and
``golden/digests.txt`` one digest of each command line of every workload,
``deep_chain`` and ``wide_dense`` included, as given and under
``--tolerance 0``, then of each help and usage-error line of
``cli_golden.USAGE_LINES``; ``scripts/cli_golden.py golden``
records all three.  A difference here means the output changed: regenerate
the files only when that is the intent.
"""

import gc
import importlib.util
import json
import pathlib

import pytest

from qhist import cli
from qhist.histories import HistoryFamily

from helpers import GOLDEN, gallery

ROOT = pathlib.Path(__file__).resolve().parent.parent
OBSERVERS_GOLDEN = json.loads((ROOT / "tests" / "golden" / "observers_cli.json").read_text())


def _ids(entries) -> list[str]:
    return [" ".join([e["command"], e["scenario"], *e["args"]]) for e in entries]


def _replay(capsys, entry, path) -> None:
    code = cli.main([entry["command"], str(path), *entry["args"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (entry["exit"], entry["stdout"], entry["stderr"])


@pytest.mark.parametrize("entry", GOLDEN, ids=_ids(GOLDEN))
def test_gallery_output_is_unchanged(capsys, entry):
    _replay(capsys, entry, gallery(entry["scenario"]))


@pytest.mark.parametrize("entry", OBSERVERS_GOLDEN, ids=_ids(OBSERVERS_GOLDEN))
def test_observers_output_is_unchanged(capsys, observers_paths, entry):
    _replay(capsys, entry, observers_paths[entry["scenario"]])


def test_no_command_enumerates_histories(capsys, monkeypatch, observers_paths):
    def refuse(family):
        raise AssertionError("the CLI read HistoryFamily.histories")

    monkeypatch.setattr(HistoryFamily, "histories", property(refuse))
    for entry in GOLDEN:
        _replay(capsys, entry, gallery(entry["scenario"]))
    for entry in OBSERVERS_GOLDEN:
        _replay(capsys, entry, observers_paths[entry["scenario"]])


# one-qubit files whose observer O2 measures what resolve refuses
FAULTY = {
    "not_hermitian": {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
    "not_orthogonal": {"projectors": [{"label": "+x", "matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]},
                                      {"label": "up", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}]},
}
FAULTY_RUNS = [{"command": c, "scenario": s, "args": []} for s in FAULTY for c in ("validate", "analyze", "classify")]


def _faulty(tmp_path, name) -> pathlib.Path:
    doc = {"format": 1, "name": name, "systems": [2], "initial_state": "up_z", "times": ["t0", "t1"],
           "observers": [{"name": "O1", "measurements": [{"time": "t1", "observable": "sigma_z"}]},
                         {"name": "O2", "measurements": [{"time": "t1", "observable": FAULTY[name]}]}]}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "kind, entry",
    [("gallery", e) for e in GOLDEN] + [("observers", e) for e in OBSERVERS_GOLDEN]
    + [("faulty", e) for e in FAULTY_RUNS],
    ids=_ids(GOLDEN) + [f"observers {i}" for i in _ids(OBSERVERS_GOLDEN)] + [f"faulty {i}" for i in _ids(FAULTY_RUNS)],
)
def test_a_command_leaves_no_cyclic_garbage(observers_paths, tmp_path, kind, entry):
    # a reference cycle outlives its command until a full collection, and the
    # peak memory of a long run grows with it; the argparse tree, built once
    # per process, is the one cycle a command may leave
    name = entry["scenario"]
    path = {"gallery": gallery, "observers": observers_paths.get, "faulty": lambda n: _faulty(tmp_path, n)}[kind](name)
    cli._build_parser()
    gc.disable()
    try:
        gc.collect()
        cli.main([entry["command"], str(path), *entry["args"]])
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def rewritten(tmp_path_factory) -> pathlib.Path:
    """The golden files as ``scripts/cli_golden.py golden`` writes them now."""
    spec = importlib.util.spec_from_file_location("cli_golden", ROOT / "scripts" / "cli_golden.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path_factory.mktemp("golden")
    script.write_golden(out)
    return out


def test_the_golden_script_reproduces_both_files(rewritten):
    for name in ("gallery_cli.json", "observers_cli.json"):
        assert (rewritten / name).read_bytes() == (ROOT / "tests" / "golden" / name).read_bytes(), name


def test_digests_of_every_workload_are_unchanged(rewritten):
    # the digests print_digests prints; deep_chain and wide_dense are pinned here only
    name = "digests.txt"
    assert (rewritten / name).read_bytes() == (ROOT / "tests" / "golden" / name).read_bytes()
