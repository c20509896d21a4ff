"""Record the CLI output of two workloads as byte-for-byte golden files.

``tests/golden/gallery_cli.json`` holds the gallery workload of
``perfbench/workloads.py`` (every shipped scenario through validate, analyze
and verify, the classify calls and the conditional queries).
``tests/golden/observers_cli.json`` holds the seed-1 ``observers`` workload,
whose two generated scenarios are written to a temporary directory first; its
entries name a scenario by its workload key (``all``, ``stable``).  Each report
command is recorded in both renderings (with and without ``--json``).  For
each command line the files keep the exit code, stdout and stderr of
``qhist.cli.main``; ``tests/test_golden.py`` replays them.  Regenerate only
when a change means to alter the output.

Run from the repository root:  PYTHONPATH=src python3 scripts/make_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import gallery, generate, write  # noqa: E402
from qhist import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
OBSERVERS_SEED = 1
REPORTS = ("analyze", "classify", "conditional")


def command_lines(cmds) -> list[tuple[str, str, tuple[str, ...]]]:
    """Each distinct (command, scenario, args) of the workload and its other rendering."""
    lines = set()
    for cmd in cmds:
        lines.add((cmd.kind, cmd.scenario, cmd.args))
        if cmd.kind in REPORTS:
            other = [a for a in cmd.args if a != "--json"]
            if "--json" not in cmd.args:
                other.append("--json")
            lines.add((cmd.kind, cmd.scenario, tuple(other)))
    return sorted(lines)


def record(command: str, scenario: str, path: pathlib.Path, args: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), *args])
    return {"command": command, "scenario": scenario, "args": list(args),
            "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_golden(name: str, cmds, paths: dict[str, pathlib.Path]) -> None:
    entries = [record(command, scenario, paths[scenario], args)
               for command, scenario, args in command_lines(cmds)]
    out = GOLDEN / name
    out.write_text(json.dumps(entries, indent=1, ensure_ascii=True) + "\n")
    print(f"wrote {len(entries)} command lines to {out.relative_to(ROOT)}")


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    scenarios, cmds = gallery(random.Random(0), ROOT)
    write_golden("gallery_cli.json", cmds, {key: ROOT / "scenarios" / f"{key}.json" for key in scenarios})
    scenarios, cmds = generate("observers", OBSERVERS_SEED, ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        write_golden("observers_cli.json", cmds, write(scenarios, pathlib.Path(tmp)))


if __name__ == "__main__":
    main()
