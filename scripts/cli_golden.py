"""Record the CLI's output on the benchmark workloads, as golden files or digests.

    PYTHONPATH=src python3 scripts/cli_golden.py golden [--out DIR]
    PYTHONPATH=src python3 scripts/cli_golden.py digests

Each command line of a workload in ``perfbench/workloads.py`` runs through
``qhist.cli.main``, each report command in both renderings (with and
without ``--json``); ``perfbench/`` is only read.

``golden`` writes three files to DIR, by default ``tests/golden``, which
``tests/test_golden.py`` checks: ``gallery_cli.json`` holds the gallery
workload (every shipped scenario through validate, analyze and verify, the
classify calls and the conditional queries), and ``observers_cli.json`` the
seed-1 ``observers`` workload, whose two generated scenarios are written to
a temporary directory first; its entries name a scenario by its workload key
(``all``, ``stable``).  Each entry keeps the exit code, stdout and stderr.
``digests.txt`` holds the lines ``digests`` prints.  Regenerate them only
when a change means to alter the output.

``digests`` prints two lines per distinct seed-1 command line of
``gallery``, ``observers``, ``deep_chain`` and ``wide_dense``, one as the
workload gives it and one with ``--tolerance 0`` appended, under which
every input check but the norm's is exact: the workload, the argv with the
scenario directory stripped (a token that is empty or holds whitespace
quoted by ``shlex.quote``), and the sha256 of the exit code, stdout and
stderr.  Commands marked ``known_defect`` are skipped.  Then it prints one
line, workload ``usage``, per command line of ``USAGE_LINES``: help, usage
errors and the argument forms around them, on the shipped ``stable_facts``
scenario.  Usage and help text are wrapped at 80 columns whatever the
terminal.  Two source trees print the same lines exactly when the CLI
prints the same bytes on every one of these command lines:

    diff <(PYTHONPATH=<other tree>/src python3 scripts/cli_golden.py digests) \\
         <(PYTHONPATH=src python3 scripts/cli_golden.py digests)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import shlex
import sys
import tempfile
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import gallery, generate, write  # noqa: E402
from qhist import cli  # noqa: E402

REPORTS = ("analyze", "classify", "conditional")
OBSERVERS_SEED = 1
DIGEST_WORKLOADS = ("gallery", "observers", "deep_chain", "wide_dense")
DIGEST_SEED = 1
EXACT = ("--tolerance", "0")  # each digested command line runs again with these flags
COMMANDS = ("validate", "analyze", "classify", "conditional", "verify")
PATH = "PATH"  # stands for the path of USAGE_SCENARIO in USAGE_LINES
USAGE_SCENARIO = "stable_facts"
USAGE_LINES = (  # argument parsing: help, usage errors, lines one token away from them, repeated options
    (),
    ("-h",),
    ("--help",),
    ("bogus",),
    ("bogus", PATH),
    ("--", "validate", PATH),
    ("-h", "validate"),
    *((command, "-h") for command in COMMANDS),
    ("validate",),
    ("validate", PATH, "--bogus"),
    ("validate", PATH, "--tol", "0"),
    ("validate", PATH, "--tolerance=1e-6"),
    ("validate", PATH, "--tolerance", "abc"),
    ("validate", PATH, "--tolerance", "-1"),
    ("validate", PATH, "--max-histories", "0"),
    ("verify", PATH, "--max-histories=x"),
    ("validate", PATH, "extra"),
    ("validate", "--", PATH),
    ("validate", PATH, "--", "extra"),
    ("validate", "--json", PATH),
    ("analyze", PATH, "--observer"),
    ("analyze", PATH, "--json", "--", "--json"),
    ("analyze", PATH, "-h", "--bogus"),
    ("classify", PATH, "--pair", "O1"),
    ("classify", PATH, "--pair", "O1", "O2", "O3"),
    ("classify", PATH, "--pair=O1", "O2"),
    ("conditional", PATH, "--fam", "O2", "--event", "t2:+x", "--given", "t1:+x"),
    ("conditional", PATH, "--event", "t2:+x", "--given", "t1:+x"),
    ("conditional", PATH, "--family", "O2", "--event", "-x", "--given", "t1:+x"),
    ("analyze", PATH, "--observer", "O1", "--observer", "O2"),
    ("conditional", PATH, "--family", "O1", "--family", "O2", "--event", "t2:+x", "--given", "t1:+x"),
    ("analyze", PATH, "--json", "--json"),
    ("conditional", PATH, "--family", "O2", "--event", "", "--given", "t1:+x"),
    ("classify", PATH, "--pair", "O1", "O2", "--json"),
    ("validate", PATH, "--max-histories", "9223372036854775808"),
)


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


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``qhist.cli.main(argv)``, with
    argparse's usage and help wrapped at 80 columns whatever the terminal."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record(command: str, scenario: str, path: pathlib.Path, args: tuple[str, ...]) -> dict:
    code, out, err = run([command, str(path), *args])
    return {"command": command, "scenario": scenario, "args": list(args), "exit": code, "stdout": out, "stderr": err}


def digest(code: int, stdout: str, stderr: str) -> str:
    return hashlib.sha256(json.dumps([code, stdout, stderr]).encode()).hexdigest()


def usage_argv(line: tuple[str, ...], path: str) -> list[str]:
    """A line of ``USAGE_LINES`` with ``path`` for ``PATH``."""
    return [path if word == PATH else word for word in line]


def shown(argv) -> str:
    """``argv`` joined by spaces, a token quoted only when it is empty or holds whitespace."""
    return " ".join(shlex.quote(word) if not word or any(c.isspace() for c in word) else word for word in argv)


def shipped(scenarios) -> dict[str, pathlib.Path]:
    """The gallery's scenario files, by workload key."""
    return {key: ROOT / "scenarios" / f"{key}.json" for key in scenarios}


def write_golden(out: pathlib.Path) -> None:
    out.mkdir(parents=True, exist_ok=True)

    def dump(name: str, cmds, paths: dict[str, pathlib.Path]) -> None:
        entries = [record(command, scenario, paths[scenario], args)
                   for command, scenario, args in command_lines(cmds)]
        (out / name).write_text(json.dumps(entries, indent=1, ensure_ascii=True) + "\n")
        print(f"wrote {len(entries)} command lines to {out / name}")

    scenarios, cmds = gallery(random.Random(0), ROOT)
    dump("gallery_cli.json", cmds, shipped(scenarios))
    scenarios, cmds = generate("observers", OBSERVERS_SEED, ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        dump("observers_cli.json", cmds, write(scenarios, pathlib.Path(tmp)))
    digests = out / "digests.txt"
    with open(digests, "w") as fh, contextlib.redirect_stdout(fh):
        print_digests()
    print(f"wrote {len(digests.read_text().splitlines())} digests to {digests}")


def digest_lines():
    """Each command line ``digests`` runs, in its order: the workload, the
    argv, and the argv as printed, the scenario by its file name.  A
    generated scenario's file lasts until the next workload's first line."""
    for workload in DIGEST_WORKLOADS:
        scenarios, cmds = generate(workload, DIGEST_SEED, ROOT)
        with tempfile.TemporaryDirectory() as tmp:
            paths = shipped(scenarios) if workload == "gallery" else write(scenarios, pathlib.Path(tmp))
            for command, scenario, args in command_lines([c for c in cmds if not c.known_defect]):
                for extra in ((), EXACT):
                    path = paths[scenario]
                    yield (workload, [command, str(path), *args, *extra],
                           shown([command, path.name, *args, *extra]))
    path = shipped([USAGE_SCENARIO])[USAGE_SCENARIO]
    for line in USAGE_LINES:
        yield "usage", usage_argv(line, str(path)), shown(usage_argv(line, path.name))


def print_digests() -> None:
    for workload, argv, shown in digest_lines():
        print(f"{workload} {shown} {digest(*run(argv))}", flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="output", required=True)
    golden = sub.add_parser("golden", help="write the golden files")
    golden.add_argument("--out", type=pathlib.Path, default=ROOT / "tests" / "golden")
    sub.add_parser("digests", help="print one digest per command line")
    args = parser.parse_args(argv)
    if args.output == "golden":
        write_golden(args.out)
    else:
        print_digests()


if __name__ == "__main__":
    main()
