"""``scripts/scale.py``: the scale ladder at its smallest sizes, run as real
processes, and how its table marks an outcome or an output that changed."""

import hashlib
import importlib.util
import pathlib
import subprocess
import sys

import pytest

from qhist import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]

HEAD = ["family", "N", "command", "expected", "outcome", "s", "MB", "out B", "sha256", "mark"]
EMPTY = hashlib.sha256(b"").hexdigest()


@pytest.fixture(scope="module")
def scale():
    """``scripts/scale.py`` as a module, with the repo root on ``sys.path`` only while it loads."""
    spec = importlib.util.spec_from_file_location("scale", ROOT / "scripts" / "scale.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:  # its dataclass looks the module up by name
        mp.syspath_prepend(str(ROOT))
        mp.setitem(sys.modules, "scale", module)
        spec.loader.exec_module(module)
    return module


def cells(line: str) -> list[str]:
    assert line.startswith("| ") and line.endswith(" |"), line
    return [cell.strip() for cell in line[2:-2].split(" | ")]


def qhist_out(capsys, argv: list[str]) -> bytes:
    cli.main(argv)
    return capsys.readouterr().out.encode()


def test_the_quick_ladder_reports_every_column(scale, tmp_path, capsys):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale.py"), "--quick"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# seed 0; RLIMIT_AS 3 GB; 11 commands, 1 run(s) each per tree; Python ")
    assert lines[1] == f"# tree: {ROOT}"
    assert cells(lines[2]) == HEAD and lines[3] == "|" + "---|" * len(HEAD)
    rows = [cells(line) for line in lines[4:]]
    assert [row[:3] for row in rows] == [
        ["floor", "-", "python -c pass"],
        ["floor", "-", "import numpy"],
        ["floor", "-", "import qhist.cli"],
        ["floor", "-", "import qhist.cli, qhist compiled"],
        ["floor", "-", "qhist validate stable_facts.json"],
        ["Heisenberg d=8, 2 slots, 4 outcomes", "16", "analyze"],
        ["dense d=8 (Haar), 2 slots, 4 outcomes", "16", "verify"],
        ["wide d=64 (Haar), 1 slots, 4 outcomes", "4", "validate"],
        ["cap: d=10, 2 slots, 1 nonzero ket", "100", "analyze --json"],
        ["σz chain, 4 slots", "16", "verify"],
        ["σz chain, 40 slots", str(2**40), f"verify --max-histories {2**40}"],
    ]
    # the same files, generated again from the seed, give the bytes each row reports
    paths = scale.write_families(scale.QUICK, 0, tmp_path)
    outputs = [b""] * 4 + [qhist_out(capsys, ["validate", str(scale.FLOOR_FILE)])]
    outputs += [b"" if expected == scale.OOM else qhist_out(capsys, [command, str(paths[family]), *options])
                for family, (command, *options), expected in scale.QUICK]
    for row, out in zip(rows, outputs):
        family, n, command, expected, result, seconds, peak_mb, size, sha256, mark = row
        assert expected == result and mark == "", row
        assert float(seconds) > 0 and float(peak_mb) > 0, row
        assert (int(size), sha256) == (len(out), hashlib.sha256(out).hexdigest()), row
    assert [row[3] for row in rows] == ["exit 0"] * 10 + ["exit 1 (out of memory)"]


def result(code=0, stderr="", seconds=1.0, peak_mb=30.0, out=b""):
    return {"code": code, "stderr": stderr, "seconds": seconds, "peak_mb": peak_mb, "bytes": len(out),
            "sha256": hashlib.sha256(out).hexdigest()}


def test_a_changed_outcome_is_marked(scale):
    rows = [("f", "4", "analyze", "exit 0"), ("f", "4", "verify", scale.OOM), ("f", "4", "validate", "exit 0")]
    runs = [[result()], [result(code=0)], [result(code=-9)]]
    lines = scale.table([""], rows, [runs])
    assert cells(lines[0]) == HEAD
    assert [cells(line)[3:] for line in lines[2:]] == [
        ["exit 0", "exit 0", "1.00", "30.0", "0", EMPTY, ""],
        [scale.OOM, "exit 0", "1.00", "30.0", "0", EMPTY, "DIFFERS"],
        ["exit 0", "signal 9", "1.00", "30.0", "0", EMPTY, "DIFFERS"],
    ]
    oom = result(code=1, stderr="error: out of memory in analyze; ...")
    assert cells(scale.table([""], rows[1:2], [[[oom]]])[2])[4:] == [scale.OOM, "1.00", "30.0", "0", EMPTY, ""]


def test_compare_prints_medians_and_marks_an_output_that_differs(scale):
    rows = [("f", "4", "analyze", "exit 0"), ("f", "4", "verify", "exit 0")]
    parent = [[result(seconds=s, peak_mb=m, out=b"x") for s, m in ((1.0, 30), (3.0, 50), (2.0, 40))]] * 2
    change = [[result(seconds=s, out=b"x") for s in (1.0, 1.5, 0.5)],
              [result(out=b"x"), result(out=b"x"), result(code=2, out=b"y")]]
    head, _, same, differs = scale.table(["parent", "change"], rows, [parent, change])
    assert cells(head) == ["family", "N", "command", "expected", "parent outcome", "parent s", "parent MB",
                           "change outcome", "change s", "change MB", "s change/parent", "out B", "sha256", "mark"]
    digest = hashlib.sha256(b"x").hexdigest()
    assert cells(same)[4:] == ["exit 0", "2.00", "40.0", "exit 0", "1.00", "30.0", "0.500", "1", digest, ""]
    assert cells(differs)[4:] == ["exit 0", "2.00", "40.0", "exit 0 / exit 2", "1.00", "30.0", "0.500",
                                  "varies", "varies", "DIFFERS, OUTPUT DIFFERS"]


def test_compare_alternates_the_trees_from_command_to_command_and_round_to_round(scale, monkeypatch):
    calls = []
    monkeypatch.setattr(scale, "run", lambda tree, argv, pycache: calls.append((tree, argv)) or result())
    results = scale.measure_all(["P", "C"], [["a"], ["b"]], 3)
    warm = ["-c", "import qhist.cli"]
    assert calls == [("P", warm), ("C", warm),
                     ("P", ["a"]), ("C", ["a"]), ("C", ["b"]), ("P", ["b"]),
                     ("C", ["a"]), ("P", ["a"]), ("P", ["b"]), ("C", ["b"]),
                     ("P", ["a"]), ("C", ["a"]), ("C", ["b"]), ("P", ["b"])]
    assert [[len(runs) for runs in per_tree] for per_tree in results] == [[3, 3], [3, 3]]
