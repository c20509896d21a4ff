"""A bounded differential fuzz of the CLI over generated scenarios.

Every command runs on ``helpers.random_scenario`` documents at the default
tolerance and at ``--tolerance 0``, and each report command in both
renderings.  Whatever the input, the exit code is one the contract in
``docs/report.md`` allows the command, no traceback reaches stderr, the
``--json`` output parses and is what Python's ``json.dumps`` writes for the
parsed document, and every number the text shows is one of the JSON's
numbers rounded as the text rounds them.
"""

import json
import re

import numpy as np
import pytest

from qhist import cli
from qhist.errors import QHistError
from qhist.scenario import resolve, serialize_scenario

from helpers import random_scenario

SEEDS = range(32)

# the exit codes docs/report.md allows each command
ALLOWED = {
    "validate": {0, 1},
    "analyze": {0, 1, 2},
    "classify": {0, 1},
    "conditional": {0, 1, 2, 3},
    "verify": {0, 1, 4},
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan|inf")


def run(capsys, argv) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _walk(doc):
    """Every scalar of a JSON document."""
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _walk(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _walk(value)
    else:
        yield doc


def text_numbers_not_in_json(text: str, doc: dict) -> list[str]:
    """The numbers of ``text`` that are none of ``doc``'s numbers rounded to
    12 significant digits, once the document's strings (names, labels,
    times) are taken out of the text.  The observer count of a ``classify``
    n-way line is the number of observers the pairs name."""
    scalars = list(_walk(doc))
    numbers = {float(f"{x:.12g}") for x in scalars if isinstance(x, (int, float)) and not isinstance(x, bool)}
    if "nway" in doc:
        numbers.add(float(len({name for pair in doc["pairs"] for name in (pair["a"], pair["b"])})))
    for s in sorted({x for x in scalars if isinstance(x, str)}, key=len, reverse=True):
        text = text.replace(s, " ")
    return [tok for tok in NUMBER.findall(text) if float(tok) not in numbers]


def _queries(scn) -> list[list[str]]:
    """A conditional query against the first observer and, with two or more,
    against the combined family: the last slot's first label given the first
    slot's."""
    try:
        records = resolve(scn)
    except QHistError:
        return [["--family", "O1", "--event", "t1:x", "--given", "t1:x"]]
    first = records[0].family
    decomps = first.slot_decompositions
    times = first.grid.slot_times
    query = ["--event", f"{times[-1]}:{decomps[-1].labels[0]}", "--given", f"{times[0]}:{decomps[0].labels[0]}"]
    families = [records[0].name] + (["combined"] if len(records) > 1 else [])
    return [["--family", family, *query] for family in families]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_command_keeps_the_contract(capsys, tmp_path, seed):
    scn = random_scenario(np.random.default_rng(seed))
    path = tmp_path / "scenario.json"
    path.write_bytes(serialize_scenario(scn))
    lines = [["validate"], ["verify"], ["analyze"], ["classify"]]
    lines += [["conditional", *query] for query in _queries(scn)]
    for tolerance in ([], ["--tolerance", "0"]):
        for command, *extra in lines:
            argv = [command, str(path), *extra, *tolerance]
            code, out, err = run(capsys, argv)
            assert code in ALLOWED[command], (argv, code, err)
            assert "Traceback" not in err, argv
            if command in ("validate", "verify"):
                continue
            json_code, json_out, json_err = run(capsys, [*argv, "--json"])
            assert (json_code, json_err) == (code, err), argv
            assert bool(out) == bool(json_out), argv
            if json_out:
                doc = json.loads(json_out)
                assert json_out == json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n", argv
                assert doc["report_version"] == 1 and doc["command"] == command
                assert text_numbers_not_in_json(out, doc) == [], (argv, out)


def test_the_number_check_sees_a_number_missing_from_the_json():
    doc = {"scenario": "s1", "pairs": [], "max_offdiag": 0.25}
    assert text_numbers_not_in_json("scenario: s1 max off-diagonal 0.25", doc) == []
    assert text_numbers_not_in_json("scenario: s1 max off-diagonal 0.125", doc) == ["0.125"]
