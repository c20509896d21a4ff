import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qhist.framework
import qhist.histories
import qhist.oracle
import qhist.stablefacts
from qhist import cli

from helpers import CONDITION2, GALLERY_NAMES, GOLDEN, gallery

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_golden", ROOT / "scripts" / "cli_golden.py")
cli_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_golden)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def qhist_env() -> dict:
    """The environment of a child ``python -m qhist.cli`` that imports this ``qhist``."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def write(tmp_path, doc) -> str:
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def one_qubit(**fields) -> dict:
    return {
        "format": 1,
        "name": "one_qubit",
        "systems": [2],
        "initial_state": "up_z",
        "times": ["t0", "t1"],
        "observers": [{"name": "O1", "measurements": [{"time": "t1", "observable": "sigma_z"}]}],
        **fields,
    }


def cmatrix(rows) -> list:
    return [[[float(z.real), float(z.imag)] for z in map(complex, row)] for row in rows]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "flags",
        [
            ("analyze", "--bogus"),
            ("analyze", "--tolerance", "abc"),
            ("conditional", "--event", "t1:+x", "--given", "t1:+x"),  # no --family
        ],
    )
    def test_usage_error_is_input_error(self, capsys, flags):
        command, *rest = flags
        code, out, err = run(capsys, command, str(gallery("repeated_x")), *rest)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: qhist")

    @pytest.mark.parametrize("command", ["validate", "analyze", "verify"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_history_cap_below_1_is_a_usage_error(self, capsys, command, cap):
        code, out, err = run(capsys, command, str(gallery("repeated_x")), "--max-histories", cap)
        assert code == 1  # an input error for every command (docs/report.md)
        assert out == ""
        assert err.startswith("usage: qhist")
        assert f"argument --max-histories: must be at least 1, got {cap}" in err
        assert "Traceback" not in err and "would enumerate" not in err

    @pytest.mark.parametrize("command", ["validate", "analyze", "verify"])
    @pytest.mark.parametrize("cap", [str(2**63), str(2**70)])
    def test_history_cap_from_2_to_the_63_is_a_usage_error(self, capsys, command, cap):
        # flat history indices are int64; a 64-slot sigma_z chain under a cap
        # of 2**70 passed validate, then failed analyze inside numpy
        code, out, err = run(capsys, command, str(gallery("repeated_x")), "--max-histories", cap)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: qhist")
        assert f"argument --max-histories: must be below 2**63 (history indices are int64), got {cap}" in err
        assert "Traceback" not in err

    def test_history_cap_just_below_2_to_the_63_is_accepted(self, capsys):
        code, out, _ = run(capsys, "validate", str(gallery("repeated_x")), "--max-histories", str(2**63 - 1))
        assert code == 0
        assert out.startswith("ok: ")

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: qhist")


class TestRepeatedCalls:
    """``main`` builds its parser once per process; one call leaves nothing for the next."""

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_observer_filter_does_not_carry_over(self, capsys):
        path = str(gallery("stable_facts"))
        code, out, _ = run(capsys, "analyze", path, "--observer", "O1")
        assert code == 0
        assert "observer O2" not in out
        code, machine, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        assert [obs["name"] for obs in json.loads(machine)["observers"]] == ["O1", "O2"]

    def test_exit_codes_after_a_good_call(self, capsys):
        path = str(gallery("repeated_x"))
        assert run(capsys, "validate", path)[0] == 0
        code, out, err = run(capsys, "analyze", path, "--bogus")
        assert (code, out) == (1, "")
        assert err.startswith("usage: qhist")
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: qhist")


def reference_main(argv) -> int:
    """How ``main`` parsed a command line before it parsed in one pass: the
    top-level parser's ``parse_args`` over the whole line."""
    try:
        args = cli._build_parser()[0].parse_args(argv)
    except SystemExit as exc:
        return cli.EXIT_INPUT if exc.code else cli.EXIT_OK
    return args.fn(args)


USAGE_PATH = str(gallery(cli_golden.USAGE_SCENARIO))
USAGE_CORPUS = [cli_golden.usage_argv(line, USAGE_PATH) for line in cli_golden.USAGE_LINES]
USAGE_TOKENS = sorted({word for argv in USAGE_CORPUS for word in argv} | {"-"})

PLAIN_VALUE = st.text(max_size=6).filter(lambda word: not word.startswith("-"))


def plain_item(action):
    """One option of ``action``'s and its values, well-formed for its type."""
    count = 0 if action.nargs == 0 else action.nargs or 1
    value = {
        float: st.one_of(st.floats(min_value=0).map(repr), st.just("nan")),
        cli.positive_int: st.integers(1, 2**63 - 1).map(str),
    }.get(action.type, PLAIN_VALUE)
    return st.builds(lambda option, values: [option, *values], st.sampled_from(action.option_strings),
                     st.lists(value, min_size=count, max_size=count))


@st.composite
def plain_line(draw):
    """A subcommand and a line of its grammar, read from its parser: every
    required option, any others, each with its values, and the path anywhere between them."""
    name = draw(st.sampled_from(cli_golden.COMMANDS))
    actions = [a for a in cli._build_parser()[1][name]._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    items = [draw(plain_item(a)) for a in actions if a.required]
    items += draw(st.lists(st.sampled_from(actions).flatmap(plain_item), max_size=5))
    items.insert(draw(st.integers(0, len(items))), [draw(PLAIN_VALUE)])
    return [name, *(word for item in items for word in item)]


HOSTILE = st.one_of(st.text(max_size=4), st.sampled_from(sorted(
    {"=", "-1", "nan", "", "-", "--", "-h", "--help", "--fam", "--tol", "--tolerance=0", "a b", "Ø", "O1",
     "t1:+x", "1e-6", "0", str(2**63), "-x", "inf"}
    | {option for parser in cli._build_parser()[1].values() for action in parser._actions
       for option in action.option_strings})))


@st.composite
def hostile_line(draw):
    """Hostile tokens alone after a subcommand, or a line of the grammar
    with some of its tokens replaced or joined by them."""
    if draw(st.integers(0, 3)) == 0:
        return [draw(st.sampled_from(cli_golden.COMMANDS)), *draw(st.lists(HOSTILE, max_size=10))]
    argv = draw(plain_line())
    for token in draw(st.lists(HOSTILE, min_size=1, max_size=2)):
        i = draw(st.integers(1, len(argv)))
        argv[i:i + draw(st.integers(0, 1))] = [token]
    return argv


class TestOneParse:
    """``main`` parses a command line once, with the subcommand's parser when
    the first argument names one, and must end as ``reference_main`` does:
    the same exit code, stdout, stderr and parsed namespace.  Each
    subcommand's function is replaced by one that records its namespace,
    so that only the parsing runs."""

    @staticmethod
    def outcome(main, argv) -> tuple:
        parsed = []

        def record(args):
            parsed.append({**vars(args), "fn": "record"})  # each outcome has a record of its own
            return cli.EXIT_OK

        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            for parser in cli._build_parser()[1].values():
                mp.setitem(parser._defaults, "fn", record)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        return code, out.getvalue(), err.getvalue(), parsed

    @pytest.mark.parametrize("argv", USAGE_CORPUS, ids=[" ".join(line) for line in cli_golden.USAGE_LINES])
    def test_the_usage_corpus_parses_as_the_top_level_parser_does(self, argv):
        assert self.outcome(cli.main, argv) == self.outcome(reference_main, argv)

    @given(st.one_of(
        st.lists(st.sampled_from(USAGE_TOKENS), max_size=8),
        st.builds(lambda command, rest: [command, *rest], st.sampled_from(cli_golden.COMMANDS),
                  st.lists(st.sampled_from(USAGE_TOKENS), max_size=8)),
    ))
    @settings(max_examples=300, deadline=None)
    def test_any_line_of_its_tokens_parses_as_the_top_level_parser_does(self, argv):
        assert self.outcome(cli.main, argv) == self.outcome(reference_main, argv)

    def assert_as_reference(self, argv):
        """As above, with namespaces compared by ``repr``, in which a NaN tolerance equals itself."""
        (code, out, err, parsed), expected = self.outcome(cli.main, argv), self.outcome(reference_main, argv)
        assert (code, out, err, repr(parsed)) == (*expected[:3], repr(expected[3]))

    @given(plain_line())
    @settings(max_examples=300, deadline=None)
    def test_any_line_of_the_grammar_parses_as_the_top_level_parser_does(self, argv):
        """Every option of each subcommand, with values of its type, beyond the usage corpus's tokens."""
        self.assert_as_reference(argv)

    @given(hostile_line())
    @example(["validate", "-x"])
    @example(["validate", "-1"])
    @example(["validate", "", "--tolerance", "nan"])
    @example(["validate", "a b", "--max-histories", str(2**63)])
    @example(["analyze", "Ø", "--observer", "O1", "--observer", "O2", "--json", "--json"])
    @example(["classify", "p", "--pair", "O1", "-"])
    @example(["conditional", "p", "--fam", "O1", "--event", "=", "--given", "t1:+x"])
    @example(["conditional", "p", "--family", "O1", "--event", "-x", "--given", "--"])
    @example(["conditional", "p", "--family", "O1", "--family", "O2", "--event", "", "--given", "t1:+x"])
    @settings(max_examples=300, deadline=None)
    def test_a_hostile_line_parses_as_the_top_level_parser_does(self, argv):
        """Abbreviations, ``=``, ``--``, dashes, help and malformed values inside a line of the grammar."""
        self.assert_as_reference(argv)

    def test_the_corpus_covers_each_way_a_line_ends(self):
        """Help, the top-level parser's errors, a subcommand's errors, leftovers and a parsed command."""
        outcomes = [self.outcome(cli.main, argv) for argv in USAGE_CORPUS]
        stderrs = [err for _, _, err, _ in outcomes]
        assert any(out.startswith("usage: qhist [-h]") for _, out, _, _ in outcomes)
        assert any(out.startswith("usage: qhist validate") for _, out, _, _ in outcomes)
        assert any(err.startswith("usage: qhist [-h]") and "unrecognized arguments: extra" in err for err in stderrs)
        assert any(err.startswith("usage: qhist [-h]") and "invalid choice: 'bogus'" in err for err in stderrs)
        assert any(err.startswith("usage: qhist classify") and "expected 2 arguments" in err for err in stderrs)
        assert any(parsed and parsed[0]["tolerance"] == 0.0 for _, _, _, parsed in outcomes)  # --tol 0

    @staticmethod
    def parse_counted(argv) -> tuple[list, int]:
        """The namespaces ``main`` called its command with on ``argv`` (only
        parsing runs), and the number of argparse calls it made."""
        calls, parsed = [], []

        def counted(original):
            def method(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)
            return method

        with pytest.MonkeyPatch.context() as mp:
            for name in ("parse_known_args", "parse_args"):
                mp.setattr(argparse.ArgumentParser, name, counted(getattr(argparse.ArgumentParser, name)))
            for parser in cli._build_parser()[1].values():
                mp.setitem(parser._defaults, "fn", lambda args: parsed.append(args) or cli.EXIT_OK)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
        return parsed, len(calls)

    def test_every_digested_workload_line_runs_after_one_argparse_call(self):
        """The subcommand's ``parse_known_args`` alone: the top-level
        ``parse_args`` would call it again, and once more per subparser."""
        lines = [argv for workload, argv, _ in cli_golden.digest_lines() if workload != "usage"]
        digested = (ROOT / "tests" / "golden" / "digests.txt").read_text().splitlines()
        assert len(lines) == sum(not line.startswith("usage ") for line in digested)
        for argv in lines:
            parsed, calls = self.parse_counted(argv)
            assert (len(parsed), calls) == (1, 1), argv


class TestInputChecks:
    """Numeric checks run once, in ``resolve``, under the command's tolerance."""

    def test_evolution_checked_under_command_tolerance(self, capsys, tmp_path):
        near = cmatrix([[1 + 1e-6, 0], [0, 1]])
        path = write(tmp_path, one_qubit(evolutions=[{"matrix": near}]))
        code, out, _ = run(capsys, "analyze", path, "--tolerance", "1e-4")
        assert code == 0
        assert "+z  1.000002" in out
        code, _, err = run(capsys, "analyze", path)
        assert code == 1
        assert "evolution 0" in err

    @pytest.mark.parametrize(
        "observable",
        [
            {"matrix": cmatrix([[0, 1], [0, 0]])},  # not Hermitian
            {"projectors": [{"label": "a", "matrix": cmatrix([[2, 0], [0, 0]])}]},  # not a projector
            {
                "projectors": [  # not orthogonal
                    {"label": "+x", "matrix": cmatrix([[0.5, 0.5], [0.5, 0.5]])},
                    {"label": "up", "matrix": cmatrix([[1, 0], [0, 0]])},
                ]
            },
        ],
        ids=["not_hermitian", "not_projector", "not_orthogonal"],
    )
    def test_bad_observable_names_its_measurement(self, capsys, tmp_path, observable):
        observers = [{"name": "O1", "measurements": [{"time": "t1", "observable": observable}]}]
        code, out, err = run(capsys, "validate", write(tmp_path, one_qubit(observers=observers)))
        assert code == 1
        assert out == ""
        assert err.startswith("error: $.observers[0].measurements[0].observable: ")


    def test_a_superscript_factor_suffix_names_its_measurement(self, capsys, tmp_path):
        observers = [{"name": "O1", "measurements": [{"time": "t1", "observable": "sigma_z@²"}]}]
        code, out, err = run(capsys, "validate", write(tmp_path, one_qubit(observers=observers)))
        assert (code, out) == (1, "")
        assert err == "error: $.observers[0].measurements[0].observable: subsystem index in 'sigma_z@²' must be 1..1\n"

    def test_initial_ket_norm_checked_under_command_tolerance(self, capsys, tmp_path):
        path = write(tmp_path, one_qubit(initial_state={"vector": [[1.000001, 0], [0, 0]]}))
        code, out, _ = run(capsys, "validate", path, "--tolerance", "1e-4")
        assert code == 0
        assert out.startswith("ok: ")
        code, out, err = run(capsys, "validate", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: $.initial_state.vector: ")

    def test_tolerance_0_accepts_a_preset_product_state(self, capsys):
        # the plus_x presets' <k|k> misses 1 by two ulp, the rounding of the sum
        code, out, err = run(capsys, "validate", str(gallery("stable_facts")), "--tolerance", "0")
        assert (code, err) == (0, "")
        assert out.startswith("ok: ")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_a_negative_zero_tolerance_reports_as_zero(self, capsys, tmp_path, json_flag):
        # before, "--tolerance -0" and a document's "cons": -0.0 printed "threshold -0"
        # and "tolerance": {"comm": -0.0, ...}
        flagged = [run(capsys, "analyze", str(gallery("repeated_x")), "--tolerance", zero, *json_flag)
                   for zero in ("-0", "0")]
        written = [run(capsys, "analyze", write(tmp_path, one_qubit(tolerance={"cons": zero})), *json_flag)
                   for zero in (-0.0, 0.0)]
        for negative, positive in (flagged, written):
            assert negative == positive
            assert negative[0] == 0 and not re.search(r"(?<![\w.])-0(\.0+)?(?![\w.])", negative[1])
        if json_flag:
            assert json.loads(flagged[0][1])["tolerance"] == dict.fromkeys(("norm", "herm", "proj", "comm", "cons"), 0)
            assert json.loads(written[0][1])["tolerance"]["cons"] == 0

    def test_tolerance_0_keeps_the_projector_checks_exact(self, capsys):
        code, out, err = run(capsys, "validate", str(gallery("measurement_fam2")), "--tolerance", "0")
        assert (code, out) == (1, "")
        assert "element 0 ('phi0') is not a projector" in err

    @pytest.mark.parametrize("tolerance", ["1e-12", "0"])
    def test_norm_beyond_rounding_rejected(self, capsys, tmp_path, tolerance):
        path = write(tmp_path, one_qubit(initial_state={"vector": [[1.0000000002 ** 0.5, 0], [0, 0]]}))
        code, out, err = run(capsys, "validate", path, "--tolerance", tolerance)
        assert (code, out) == (1, "")
        assert err.startswith("error: $.initial_state.vector: ket is not normalized: <k|k> = 1.00000000")

    @pytest.mark.parametrize(
        "fields, flags, path",
        [
            ({"evolutions": [{"matrix": cmatrix([[1, 1], [0, 1]])}]}, (), "$.evolutions[0].matrix"),
            ({"initial_state": {"vector": [[float("nan"), 0], [0, 0]]}}, (), "$.initial_state.vector"),
            ({"evolutions": [{"matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]}]}, (),
             "$.evolutions[0].matrix"),
            ({"initial_state": {"vector": [[1.0000000002 ** 0.5, 0], [0, 0]]}, "tolerance": {"norm": 1e-6}},
             ("--tolerance", "1e-12"), "$.initial_state.vector"),
        ],
        ids=["non_unitary_evolution", "nan_amplitude", "nan_evolution_entry", "norm_under_flag"],
    )
    def test_resolution_error_names_its_path(self, capsys, tmp_path, fields, flags, path):
        code, out, err = run(capsys, "validate", write(tmp_path, one_qubit(**fields)), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: ")
        assert "np.float64(" not in err


def _observing(observable, **fields) -> dict:
    return one_qubit(observers=[{"name": "O1", "measurements": [{"time": "t1", "observable": observable}]}],
                     **fields)


class TestScenarioErrors:
    """Every structural error of a scenario file is an input error that names its JSONPath."""

    @pytest.mark.parametrize(
        "doc, path",
        [
            (b'{"name": "\xff"}', "$"),
            (b"[]", "$"),
            (b"[" * 200000, "$"),
            ({k: v for k, v in one_qubit().items() if k != "times"}, "$"),
            (one_qubit(initial_state=5), "$.initial_state"),
            (one_qubit(systems=[]), "$.systems"),
            (one_qubit(systems=[0]), "$.systems[0]"),
            (one_qubit(systems=[2**32, 2**32]), "$.systems"),
            (one_qubit(initial_state={"vector": [[1, 0, 0], [0, 0]]}), "$.initial_state.vector[0]"),
            (one_qubit(initial_state={"vector": []}), "$.initial_state.vector"),
            (one_qubit(initial_state={"vector": [[1, 0]]}), "$.initial_state.vector"),
            (one_qubit(evolutions=[{"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}]), "$.evolutions[0].matrix"),
            (one_qubit(times=["t0"], observers=[]), "$.times"),
            (one_qubit(times=["t0", "t0"], observers=[]), "$.times"),
            (one_qubit(times=["t0", 1]), "$.times[1]"),
            (one_qubit(evolutions=[]), "$.evolutions"),
            (one_qubit(evolutions=[{"matrix": [[[1, 0]]]}]), "$.evolutions[0].matrix"),
            (one_qubit(evolutions=[{"matrix": []}]), "$.evolutions[0].matrix"),
            (_observing({"eigenvalues": [1, -1]}), "$.observers[0].measurements[0].observable"),
            (_observing({"projectors": []}), "$.observers[0].measurements[0].observable.projectors"),
            (_observing({"projectors": [{"label": "a", "matrix": [[[1, 0]]]}]}),
             "$.observers[0].measurements[0].observable.projectors[0].matrix"),
            (_observing("sigma_z@5", systems=[2, 2, 2, 2], initial_state=["up_z"] * 4),
             "$.observers[0].measurements[0].observable"),
            (_observing("sigma_z@1", systems=[3], initial_state={"vector": [[1, 0], [0, 0], [0, 0]]}),
             "$.observers[0].measurements[0].observable"),
            (one_qubit(observers=[{"name": 5, "measurements": []}]), "$.observers[0].name"),
            (one_qubit(observers=[{"name": "O1", "measurements": []}] * 2), "$.observers[1].name"),
            (one_qubit(observers=[{"name": n, "measurements": []} for n in ("B", "combined")]), "$.observers[1].name"),
            (one_qubit(observers=[{"name": "O1", "measurements": [{"time": "t9", "observable": "sigma_z"}]}]),
             "$.observers[0].measurements[0].time"),
            (one_qubit(systems=[2, 2]), "$.initial_state"),
            (one_qubit(initial_state="up_q"), "$.initial_state[0]"),
            (one_qubit(initial_state={"vector": [[10**400, 0], [0, 0]]}), "$.initial_state.vector[0]"),
            (_observing({"matrix": [[[1, 0], [0, 0]], [[0, -10**400], [1, 0]]]}),
             "$.observers[0].measurements[0].observable.matrix[1][0]"),
        ],
        ids=[
            "not_utf8", "not_an_object", "nested_too_deeply", "missing_field", "state_of_wrong_type", "empty_systems", "zero_dim_factor", "total_dim_wraps_int64", "complex_not_pair", "empty_vector",
            "vector_wrong_length", "ragged_rows", "one_time", "duplicate_times", "time_not_a_string",
            "evolution_count",
            "evolution_shape", "empty_matrix", "observable_without_matrix_or_projectors",
            "empty_projector_list", "projector_shape",
            "pauli_factor_out_of_range", "pauli_on_qutrit", "observer_name_not_a_string", "duplicate_observer",
            "reserved_observer_name",
            "time_off_grid",
            "preset_count", "unknown_preset", "huge_int_in_vector", "huge_int_in_matrix",
        ],
    )
    def test_validate_names_the_path(self, capsys, tmp_path, doc, path):
        target = tmp_path / "scenario.json"
        target.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        code, out, err = run(capsys, "validate", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err


class TestReadFaults:
    """What JSON reads without a word, and no command can use, is refused as
    it is read: every command exits 1 with one line."""

    @pytest.mark.parametrize("text, err", [
        (json.dumps(one_qubit()).replace('"measurements": [', '"measurements": [], "measurements": ['),
         "error: $: invalid JSON: duplicate key 'measurements'\n"),
        (json.dumps(one_qubit(name="a\ud800b")), "error: $: not valid UTF-8: lone surrogate '\\ud800'\n"),
    ], ids=["repeated_key", "lone_surrogate"])
    def test_every_command_refuses_it_alike(self, capsys, tmp_path, text, err):
        # before, every command read the repeated key's last value; validate
        # accepted the lone surrogate, which analyze then failed to write
        path = tmp_path / "scenario.json"
        path.write_text(text)
        for command, *flags in (("validate",), ("analyze",), ("classify",), ONLY_O1, ("verify",)):
            assert run(capsys, command, str(path), *flags) == (1, "", err), command


class TestValidate:
    def test_shipped_scenario(self, capsys):
        code, out, _ = run(capsys, "validate", str(gallery("stable_facts")))
        assert code == 0
        assert "stable_facts" in out

    def test_dim_mismatch_names_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "format": 1,
                    "name": "bad",
                    "systems": [2],
                    "initial_state": "up_z",
                    "times": ["t0", "t1"],
                    "observers": [
                        {
                            "name": "O1",
                            "measurements": [
                                {
                                    "time": "t1",
                                    "observable": {"matrix": [[[1, 0]]]},
                                }
                            ],
                        }
                    ],
                }
            )
        )
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "observers[0].measurements[0]" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no/such/file.json")
        assert code == 1
        assert err


class TestAnalyze:
    def test_repeated_x(self, capsys):
        code, out, _ = run(capsys, "analyze", str(gallery("repeated_x")))
        assert code == 0
        assert "consistent" in out
        assert out.count("0.5") == 2

    def test_zxz_inconsistent(self, capsys):
        code, out, _ = run(capsys, "analyze", str(gallery("zxz_inconsistent")))
        assert code == 2
        assert "inconsistent" in out
        assert "0.25" in out

    def test_json_mirrors_human_numbers(self, capsys):
        code, human, _ = run(capsys, "analyze", str(gallery("zxz_inconsistent")))
        assert code == 2
        code, machine, _ = run(capsys, "analyze", str(gallery("zxz_inconsistent")), "--json")
        assert code == 2
        doc = json.loads(machine)
        observer = doc["observers"][0]
        assert f"{observer['max_offdiag']:.12g}" in human
        for entry in observer["histories"]:
            assert f"{entry['probability']:.12g}" in human

    def test_observer_flag_restricts_output(self, capsys):
        code, out, _ = run(capsys, "analyze", str(gallery("stable_facts")), "--observer", "O2")
        assert code == 0
        assert "observer O2:" in out
        assert "observer O1" not in out

    def test_unknown_observer_flag(self, capsys):
        code, _, err = run(capsys, "analyze", str(gallery("repeated_x")), "--observer", "nobody")
        assert code == 1
        assert "nobody" in err

    def test_observer_flags_list_in_scenario_order(self, capsys):
        flags = ("--observer", "O2", "--observer", "O1")
        code, out, _ = run(capsys, "analyze", str(gallery("stable_facts")), *flags)
        assert code == 0
        assert out.index("observer O1:") < out.index("observer O2:")
        code, out, _ = run(capsys, "analyze", str(gallery("stable_facts")), *flags, "--json")
        assert code == 0
        assert [obs["name"] for obs in json.loads(out)["observers"]] == ["O1", "O2"]

    def test_rows_of_a_14_slot_chain(self, capsys, tmp_path):
        """16384 rows: the JSON is the stdlib's bytes, and the text lists the same rows."""
        times = [f"t{k}" for k in range(15)]
        path = write(tmp_path, one_qubit(
            name="sz_chain_14", times=times,
            observers=[{"name": "O1", "measurements": [{"time": t, "observable": "sigma_z"} for t in times[1:]]}],
        ))
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        doc = json.loads(out)
        expected = stdlib_dumps(doc) + "\n"
        same = out == expected  # a bare bool: pytest would diff the two 1 MB strings line by line
        assert same, f"the bytes differ from offset {len(os.path.commonprefix([out, expected]))}"
        rows = doc["observers"][0]["histories"]
        assert len(rows) == 2**14
        assert rows[0] == {"labels": ["+z"] * 14, "probability": 1.0}
        assert sum(row["probability"] for row in rows) == 1.0
        code, text, _ = run(capsys, "analyze", path)
        assert code == 0
        assert text.splitlines()[2:] == [f"  {','.join(row['labels'])}  {row['probability']:.12g}" for row in rows]


def _two_slot_lists(first: tuple[str, str], second: tuple[str, str]) -> dict:
    """Two qubits from plus_x, plus_x; O1 measures the first qubit's z and
    O2 the second's, each as a list of two diagonal projectors."""

    def slot(labels, diagonals):
        projectors = [{"label": label, "matrix": cmatrix(np.diag(d))} for label, d in zip(labels, diagonals)]
        return [{"time": "t1", "observable": {"projectors": projectors}}]

    return {
        "format": 1,
        "name": "two_slot_lists",
        "systems": [2, 2],
        "initial_state": ["plus_x", "plus_x"],
        "times": ["t0", "t1"],
        "observers": [
            {"name": "O1", "measurements": slot(first, [(1, 1, 0, 0), (0, 0, 1, 1)])},
            {"name": "O2", "measurements": slot(second, [(1, 0, 1, 0), (0, 1, 0, 1)])},
        ],
    }


class TestJoinerLabels:
    """A given label may not contain a joiner: with labels p, p∧q and q∧r, r
    two products were both labelled p∧q∧r, and a stable pair read relative."""

    def test_plain_labels_are_stable(self, capsys, tmp_path):
        code, out, _ = run(capsys, "classify", write(tmp_path, _two_slot_lists(("p", "s"), ("u", "r"))))
        assert code == 0
        assert "pair O1,O2: stable" in out
        assert "product family: consistent" in out

    def test_joined_labels_are_refused(self, capsys, tmp_path):
        code, out, err = run(capsys, "classify", write(tmp_path, _two_slot_lists(("p", "p∧q"), ("q∧r", "r"))))
        assert (code, out) == (1, "")
        assert err == ("error: $.observers[0].measurements[0].observable.projectors[1].label: "
                       "label 'p∧q' contains the joiner '∧'\n")


def _three_observers(o2, **fields) -> dict:
    """One qubit from up_z over two slots: O1 measures sigma_z at t1, O2
    measures ``o2`` (time to observable), and O3 sigma_x at t2."""

    def measuring(by_time):
        return [{"time": t, "observable": obs} for t, obs in by_time.items()]

    return {
        "format": 1,
        "name": "three_observers",
        "systems": [2],
        "initial_state": "up_z",
        "times": ["t0", "t1", "t2"],
        "observers": [
            {"name": "O1", "measurements": measuring({"t1": "sigma_z"})},
            {"name": "O2", "measurements": measuring(o2)},
            {"name": "O3", "measurements": measuring({"t2": "sigma_x"})},
        ],
        **fields,
    }


ONLY_O1 = ("conditional", "--family", "O1", "--event", "t1:+z", "--given", "t1:+z")
ONLY_O1_O3 = ("classify", "--pair", "O1", "O3")


class TestReadObservers:
    """A command builds the families of the observers it reads, and checks
    every number the file supplies for every observer."""

    @pytest.mark.parametrize(
        "o2, fields",
        [
            ({"t1": {"matrix": cmatrix([[0, 1], [0, 0]])}}, {}),
            ({"t1": {"projectors": [{"label": "+x", "matrix": cmatrix([[0.5, 0.5], [0.5, 0.5]])},
                                    {"label": "up", "matrix": cmatrix([[1, 0], [0, 0]])}]}}, {}),
            ({"t1": "sigma_x"}, {"evolutions": [{"matrix": cmatrix([[1, 1], [0, 1]])}, "identity"]}),
        ],
        ids=["not_hermitian", "not_orthogonal", "not_unitary"],
    )
    @pytest.mark.parametrize("argv", [ONLY_O1, ONLY_O1_O3], ids=["conditional_O1", "classify_O1_O3"])
    def test_an_unread_observers_fault_fails_the_command_as_validate(self, capsys, tmp_path, o2, fields, argv):
        path = write(tmp_path, _three_observers(o2, **fields))
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: $.")
        command, *flags = argv
        assert run(capsys, command, path, *flags) == (1, "", err)

    def test_tolerance_0_fails_only_the_commands_that_decompose_the_matrix(self, capsys, tmp_path):
        # sigma_x given as a matrix of 0s and 1s: eigh's eigenprojectors are not exactly idempotent
        path = write(tmp_path, _three_observers({"t1": {"matrix": cmatrix([[0, 1], [1, 0]])}}))
        fault = "error: $.observers[1].measurements[0].observable: element 0 ('ev0=-1') is not a projector\n"
        exact = ("--tolerance", "0")
        assert run(capsys, "validate", path, *exact) == (1, "", fault)
        assert run(capsys, "conditional", path, "--family", "O2", "--event", "t1:ev0=-1",
                   "--given", "t1:ev1=1", *exact) == (1, "", fault)
        assert run(capsys, "classify", path, "--pair", "O1", "O2", *exact) == (1, "", fault)
        assert run(capsys, "analyze", path, "--observer", "O3", "--observer", "O2", *exact) == (1, "", fault)
        code, out, err = run(capsys, *ONLY_O1[:1], path, *ONLY_O1[1:], *exact)
        assert (code, out, err) == (0, "P(+z@t1 | +z@t1) = 1 [family O1, scenario three_observers]\n", "")
        code, out, err = run(capsys, *ONLY_O1_O3[:1], path, *ONLY_O1_O3[1:], *exact)
        assert (code, err) == (0, "")
        assert "pair O1,O3: stable" in out
        code, out, err = run(capsys, "analyze", path, "--observer", "O3", *exact)
        assert (code, err) == (0, "")
        assert "observer O3: consistent" in out

    def test_the_history_cap_counts_only_the_families_built(self, capsys, tmp_path):
        # O1 and O3 have 2 histories each, O2 4
        path = write(tmp_path, _three_observers({"t1": "sigma_x", "t2": "sigma_z"}))
        cap = ("--max-histories", "3")
        fault = "error: family would enumerate > 3 histories\n"
        assert run(capsys, "validate", path, *cap) == (1, "", fault)
        assert run(capsys, "conditional", path, "--family", "O2", "--event", "t1:+x",
                   "--given", "t1:+x", *cap) == (1, "", fault)
        assert run(capsys, "analyze", path, "--observer", "O2", *cap) == (1, "", fault)
        code, out, err = run(capsys, *ONLY_O1[:1], path, *ONLY_O1[1:], *cap)
        assert (code, out, err) == (0, "P(+z@t1 | +z@t1) = 1 [family O1, scenario three_observers]\n", "")
        code, out, err = run(capsys, "analyze", path, "--observer", "O1", "--observer", "O3", *cap)
        assert (code, err) == (0, "")
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("observer")] == [
            "observer O1", "observer O3"]

    def test_unknown_names_are_reported_as_before(self, capsys, tmp_path):
        path = write(tmp_path, _three_observers({"t1": "sigma_x"}))
        assert run(capsys, "conditional", path, "--family", "O9", "--event", "t1:+z", "--given", "t1:+z") == (
            1, "", "error: unknown family 'O9' (pick an observer name or 'combined')\n")
        assert run(capsys, "classify", path, "--pair", "O1", "O9") == (1, "", "error: unknown observer(s): O9\n")
        assert run(capsys, "analyze", path, "--observer", "O9") == (1, "", "error: unknown observer(s): O9\n")

    @pytest.mark.parametrize("argv, decomposed", [
        (("validate",), 1),
        (("verify",), 1),
        (("classify", "--pair", "O1", "O3"), 1),
        (("classify", "--pair", "O1", "O2"), 0),
        (("conditional", "--family", "O1", "--event", "t1:+z", "--given", "t1:+z"), 0),
        (("conditional", "--family", "O3", "--event", "t1:+y", "--given", "t1:+y"), 1),
        (("analyze", "--observer", "O4"), 0),
    ])
    def test_the_observers_matrix_is_decomposed_only_when_read(self, capsys, monkeypatch, observers_paths,
                                                                argv, decomposed):
        # in the observers workload's all.json, O3's last slot is the one matrix observable
        calls = []
        original = qhist.framework.hermitian_eigenprojectors

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(qhist.framework, "hermitian_eigenprojectors", counted)
        command, *flags = argv
        code, _, err = run(capsys, command, str(observers_paths["all"]), *flags)
        assert code != 1, err
        assert len(calls) == decomposed


class TestClassify:
    def test_stable(self, capsys):
        code, out, _ = run(capsys, "classify", str(gallery("stable_facts")))
        assert code == 0
        assert "stable" in out

    def test_relative_names_failing_condition(self, capsys):
        code, out, _ = run(capsys, "classify", str(gallery("relative_facts")))
        assert code == 0  # a verdict is a result, not an error
        assert "relative" in out
        assert "condition1" in out
        assert "0.5" in out

    def test_self_pair(self, capsys):
        code, out, _ = run(capsys, "classify", str(gallery("stable_facts")), "--pair", "O1", "O1")
        assert code == 0
        assert "stable" in out

    def test_single_observer_is_input_error(self, capsys):
        code, _, err = run(capsys, "classify", str(gallery("repeated_x")))
        assert code == 1
        assert "two observers" in err

    def test_condition2_and_not_combinable(self, capsys, tmp_path):
        path = write(tmp_path, CONDITION2)
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "pair A,B: relative (condition2 fails)" in out
        assert "product family: inconsistent, max off-diagonal 0.25" in out
        assert "pair A,C: relative (condition1 fails)" in out
        assert "pair B,C: stable" in out
        assert "all 3 observers: not combinable into one framework" in out
        code, machine, _ = run(capsys, "classify", path, "--json")
        assert code == 0
        doc = json.loads(machine)
        verdicts = {(p["a"], p["b"]): (p["verdict"], p["failing_condition"]) for p in doc["pairs"]}
        assert verdicts == {
            ("A", "B"): ("relative", "condition2"),
            ("A", "C"): ("relative", "condition1"),
            ("B", "C"): ("stable", None),
        }
        assert doc["pairs"][0]["product_consistency"]["max_offdiag"] == pytest.approx(0.25, abs=1e-12)
        assert doc["nway"] == {"combinable": False, "consistent": None, "max_offdiag": None}

    def test_loose_comm_skips_condition2_although_every_slot_commutes(self, capsys, tmp_path):
        """comm 1e-3 passes a z axis tilted by 1e-5 rad as commuting with
        sigma_z (residual 5e-6), but their products are not projectors
        within proj 1e-9, so condition 2 is skipped, not evaluated."""
        tilt = 1e-5
        tilted = [[math.cos(tilt), math.sin(tilt)], [math.sin(tilt), -math.cos(tilt)]]
        observers = [{"name": "A", "measurements": [{"time": "t1", "observable": "sigma_z"}]},
                     {"name": "B", "measurements": [{"time": "t1", "observable": {"matrix": cmatrix(tilted)}}]}]
        path = write(tmp_path, one_qubit(tolerance={"comm": 1e-3}, observers=observers))
        code, out, _ = run(capsys, "classify", path, "--json")
        assert code == 0
        (pair,) = json.loads(out)["pairs"]
        (slot,) = pair["slots"]
        assert slot["commutes"]
        assert slot["max_residual"] == pytest.approx(5e-6, rel=1e-6)
        assert (pair["verdict"], pair["failing_condition"]) == ("relative", "condition2")
        assert pair["product_consistency"] is None

    def test_unknown_pair_member(self, capsys):
        code, _, err = run(capsys, "classify", str(gallery("stable_facts")), "--pair", "O1", "nobody")
        assert code == 1
        assert "nobody" in err

    def test_three_observers_report_nway_verdict(self, capsys, tmp_path):
        doc = json.loads(gallery("stable_facts").read_text())
        doc["observers"].append({"name": "O3", "measurements": []})
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert out.count("pair") == 3
        assert "all 3 observers" in out
        code, machine, _ = run(capsys, "classify", str(path), "--json")
        assert code == 0
        doc = json.loads(machine)
        assert doc["nway"]["combinable"] and doc["nway"]["consistent"]


    def test_nway_fold_fails_after_a_stable_first_pair(self, capsys, tmp_path):
        observers = [{"name": name, "measurements": [{"time": "t1", "observable": op}]}
                     for name, op in (("O1", "sigma_z"), ("O2", "sigma_z"), ("O3", "sigma_x"))]
        path = write(tmp_path, one_qubit(observers=observers))
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "pair O1,O2: stable" in out
        assert out.endswith("all 3 observers: not combinable into one framework\n")
        code, machine, _ = run(capsys, "classify", path, "--json")
        assert code == 0
        assert json.loads(machine)["nway"] == {"combinable": False, "consistent": None, "max_offdiag": None}


class TestConditional:
    def test_delta_matching(self, capsys):
        code, out, _ = run(
            capsys, "conditional", str(gallery("measurement_fam1")),
            "--family", "O1", "--event", "t1:s1", "--given", "t2:M1",
        )
        assert code == 0
        assert "= 1 " in out

    def test_delta_mismatched(self, capsys):
        code, out, _ = run(
            capsys, "conditional", str(gallery("measurement_fam1")),
            "--family", "O1", "--event", "t1:s1", "--given", "t2:M2",
        )
        assert code == 0
        assert "= 0 " in out

    def test_event_absent_from_family_refused(self, capsys):
        code, _, err = run(
            capsys, "conditional", str(gallery("measurement_fam2")),
            "--family", "O1", "--event", "t1:s1", "--given", "t2:M1",
        )
        assert code == 3
        assert "s1" in err

    def test_inconsistent_family_refused(self, capsys):
        code, _, err = run(
            capsys, "conditional", str(gallery("zxz_inconsistent")),
            "--family", "O1", "--event", "t2:+z", "--given", "t1:+x",
        )
        assert code == 3
        assert "inconsistent" in err

    def test_zero_probability_condition(self, capsys):
        code, _, err = run(
            capsys, "conditional", str(gallery("measurement_fam1")),
            "--family", "O1", "--event", "t2:M1", "--given", "t1:rest",
        )
        assert code == 2
        assert "probability" in err

    @pytest.mark.parametrize(
        "name, family, event, message",
        [
            ("repeated_x", "O1", "t1", "TIME:LABEL"),
            ("repeated_x", "nobody", "t1:+x", "unknown family"),
            ("repeated_x", "combined", "t1:+x", "at least two observers"),
        ],
        ids=["malformed_event", "unknown_family", "combined_needs_two"],
    )
    def test_input_errors(self, capsys, name, family, event, message):
        code, out, err = run(
            capsys, "conditional", str(gallery(name)),
            "--family", family, "--event", event, "--given", "t1:+x",
        )
        assert code == 1
        assert out == ""
        assert message in err

    def test_disjoint_outcomes_at_one_time(self, capsys):
        code, out, _ = run(
            capsys, "conditional", str(gallery("repeated_x")),
            "--family", "O1", "--event", "t1:-x", "--given", "t1:+x",
        )
        assert code == 0
        assert out.startswith("P(-x@t1 | +x@t1) = 0 ")

    def test_a_time_containing_a_colon_is_split_after(self, capsys, tmp_path):
        measurements = [{"time": t, "observable": "sigma_z"} for t in ("1:00", "2:00")]
        doc = one_qubit(times=["0:00", "1:00", "2:00"], observers=[{"name": "O1", "measurements": measurements}])
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "conditional", path, "--family", "O1", "--event", "2:00:+z", "--given", "1:00:+z")
        assert code == 0
        assert out.startswith("P(+z@2:00 | +z@1:00) = 1 ")
        # no prefix is a slot time, so the first ":" splits, as for any other time
        code, out, err = run(capsys, "conditional", path, "--family", "O1", "--event", "3:00:+z", "--given", "1:00:+z")
        assert (code, out) == (1, "")
        assert "time '3' not on grid" in err

    def test_a_time_extending_another_past_a_colon_is_the_split_the_family_has(self, capsys, tmp_path):
        measurements = [{"time": t, "observable": "sigma_z"} for t in ("1", "1:00")]
        doc = one_qubit(times=["0", "1", "1:00"], observers=[{"name": "O1", "measurements": measurements}])
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "conditional", path, "--family", "O1", "--event", "1:00:+z", "--given", "1:+z")
        assert code == 0
        assert out.startswith("P(+z@1:00 | +z@1) = 1 ")
        # no reading names an outcome of the family: the first split stands, and its refusal
        code, out, err = run(capsys, "conditional", path, "--family", "O1", "--event", "1:00:+q", "--given", "1:+z")
        assert (code, out) == (3, "")
        assert "label '00:+q' not in ('+z', '-z')" in err

    def test_combined_family(self, capsys):
        code, out, _ = run(
            capsys, "conditional", str(gallery("stable_facts")), "--json",
            "--family", "combined",
            "--event", "t2:+z∧+x", "--given", "t1:+x∧+x",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "combined"
        assert doc["probability"] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("conditional", ("--family", "combined", "--event", "t2:+z∧+x", "--given", "t1:+x∧+x")),
            ("classify", ()),
        ],
    )
    def test_history_cap_applies_to_product_families(self, capsys, command, extra):
        # each observer's own family has 4 histories, the product family 8
        code, out, err = run(capsys, command, str(gallery("stable_facts")), "--max-histories", "4", *extra)
        assert code == 1
        assert out == ""
        assert err == "error: family would enumerate > 4 histories\n"


class TestVerify:
    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_shipped_scenarios_pass(self, capsys, name):
        code, out, _ = run(capsys, "verify", str(gallery(name)))
        assert code == 0
        assert "ok" in out

    def test_fault_injection_detected(self, capsys, monkeypatch):
        from qhist.oracle import leaves

        def corrupted(family):
            # every leaf's state scaled so that its squared norm is 1e-6 more
            indices, states = leaves(family)
            return indices, [state * np.sqrt(1 + 1e-6 / np.vdot(state, state).real) for state in states]

        monkeypatch.setattr(cli, "leaves", corrupted)
        code, _, err = run(capsys, "verify", str(gallery("repeated_x")))
        assert code == 4
        assert "discrepancy" in err

    @pytest.mark.parametrize("index, labels", [(1, "+x,-x"), (2, "-x,+x")])
    def test_fault_in_one_history_of_a_later_observer_is_named(
        self, capsys, monkeypatch, index, labels
    ):
        # stable_facts' O2 measures x at t1 and at t2; its flat history order
        # is (+x,+x), (+x,-x), (-x,+x), (-x,-x).  Only O2's oracle is corrupted,
        # so O1's tiny discrepancies must not hide it.
        from qhist.oracle import leaves

        calls = []

        def corrupted(family):
            indices, states = leaves(family)
            calls.append(family)
            if len(calls) == 2:
                # the history's leaf, a new one if its state is exactly zero,
                # with a squared norm 1e-6 more
                by_index = dict(zip(indices.tolist(), states))
                state = by_index.get(index, np.zeros(family.dim, dtype=complex))
                by_index[index] = np.zeros(family.dim, dtype=complex)
                by_index[index][0] = np.sqrt(np.vdot(state, state).real + 1e-6)
                indices = np.array(sorted(by_index), dtype=np.int64)
                states = [by_index[k] for k in indices.tolist()]
            return indices, states

        monkeypatch.setattr(cli, "leaves", corrupted)
        code, out, err = run(capsys, "verify", str(gallery("stable_facts")))
        assert len(calls) == 2
        assert code == 4
        assert out == ""
        assert err.rstrip("\n").endswith(f"at observer O2, history {labels}")

    def test_a_leaf_the_oracle_drops_is_caught_on_the_engines_support(self, capsys, monkeypatch):
        # the comparison covers the engine's support as well as the leaves
        from qhist.oracle import leaves

        calls = []

        def dropped(family):
            indices, states = leaves(family)
            calls.append(family)
            return (indices[1:], states[1:]) if len(calls) == 2 else (indices, states)

        monkeypatch.setattr(cli, "leaves", dropped)
        code, out, err = run(capsys, "verify", str(gallery("stable_facts")))
        assert (code, out) == (4, "")
        assert err.rstrip("\n").endswith("at observer O2, history +x,+x")

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_no_n_length_oracle_array_is_read(self, capsys, monkeypatch, name):
        # verify reads the oracle's leaves, not its probabilities scattered
        # into one entry per history
        def refused(family):
            raise AssertionError("sequential_probabilities called")

        monkeypatch.setattr(qhist.oracle, "sequential_probabilities", refused)
        monkeypatch.setattr(cli, "sequential_probabilities", refused, raising=False)
        code, out, _ = run(capsys, "verify", str(gallery(name)))
        assert code == 0
        assert out.startswith("ok: ")

    def test_no_observers_is_input_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(
            json.dumps(
                {
                    "format": 1,
                    "name": "empty",
                    "systems": [2],
                    "initial_state": "up_z",
                    "times": ["t0", "t1"],
                    "observers": [],
                }
            )
        )
        code, _, err = run(capsys, "verify", str(empty))
        assert code == 1
        assert "no observers" in err


class TestDeterminism:
    @pytest.mark.parametrize("command", ["analyze", "classify"])
    def test_json_output_is_byte_identical(self, capsys, command):
        first = run(capsys, command, str(gallery("stable_facts")), "--json")
        second = run(capsys, command, str(gallery("stable_facts")), "--json")
        assert first == second
        json.loads(first[1])


def stdlib_dumps(doc) -> str:
    """The encoding ``cli._write`` reproduces."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True)


def dumps(doc) -> str:
    """``doc`` as ``cli._write`` writes it."""
    out = []
    cli._write(doc, out.append, "\n")
    return "".join(out)


# lone surrogates, control characters, quotes, backslashes and non-ASCII,
# on top of whatever st.characters draws
CHARS = st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600')
TEXT = st.text(CHARS, max_size=8)
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | FLOATS
    | TEXT
)
# what a report holds: lists, and dicts with str keys
TREES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


WRAP = {"list": lambda x: [x, 0], "dict": lambda x: {"k": x, "a": []}}


def nest(leaf, kinds):
    """``leaf`` wrapped in one container per entry of ``kinds``, innermost first."""
    for kind in kinds:
        leaf = WRAP[kind](leaf)
    return leaf


class TestWrite:
    """``cli._write`` writes a report's tree as the stdlib encoder would, and
    refuses what a report never holds rather than write other bytes."""

    @settings(max_examples=200, deadline=None)
    @given(TREES, st.lists(st.sampled_from(["list", "dict"]), max_size=40))
    @example({}, [])
    @example([[], {}, [{}]], [])
    @example({"b": [1e308, -0.0, 5e-324, math.nan, -math.inf, 2**70, True, None], "a": "\ud800"},
             ["dict", "list"] * 20)
    def test_matches_the_stdlib_encoder(self, doc, kinds):
        doc = nest(doc, kinds)
        assert dumps(doc) == stdlib_dumps(doc)

    @settings(max_examples=50, deadline=None)
    @given(TREES, st.sampled_from([(1,), {1: "x"}, b"x", 1j, np.int64(1), np.float64(1.0), object()]))
    def test_refuses_what_a_report_never_holds(self, doc, bad):
        for wrapped in (bad, {"a": doc, "b": bad}, [doc, bad], [doc, {"k": [bad]}]):
            with pytest.raises(TypeError):
                dumps(wrapped)


SLOT_LABELS = st.lists(st.lists(TEXT, min_size=1, max_size=3), min_size=1, max_size=4)


@st.composite
def analyze_rows(draw):
    """Slot labels and one probability per history, as an ``analyze`` family has them."""
    slots = draw(SLOT_LABELS)
    n = math.prod(map(len, slots))
    probabilities = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
    probabilities.setflags(write=False)
    return slots, probabilities


def analyze_doc(histories) -> dict:
    return {"report_version": 1, "command": "analyze", "scenario": "s", "tolerance": {"cons": 1e-9},
            "observers": [{"name": "O1", "consistent": True, "max_offdiag": 0.0, "threshold": 1e-9,
                           "histories": histories}]}


# rows per chunk: 1, 2 and 3 end chunks at counts that do not divide the row count
CHUNKS = st.sampled_from([1, 2, 3, 8192])


class TestAnalyzeRows:
    """``cli._Rows`` writes what one dict per history gave, a chunk of rows at a time."""

    @settings(max_examples=100, deadline=None)
    @given(analyze_rows(), st.lists(st.sampled_from(["list", "dict"]), max_size=6), CHUNKS)
    @example(([["+z", "-z"], ["any"]], np.array([1.0, math.nan])), [], 8192)
    @example(([["a", "b", "c"], ["x", "y"]], np.linspace(0, 1, 6)), ["dict"], 4)
    def test_json_matches_dict_rows(self, rows, kinds, chunk):
        slots, probabilities = rows
        dict_rows = [{"labels": list(labels), "probability": float(p)}
                     for labels, p in zip(itertools.product(*slots), probabilities)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CHUNK", chunk)
            assert dumps(nest(analyze_doc(cli._Rows(slots, probabilities)), kinds)) == stdlib_dumps(
                nest(analyze_doc(dict_rows), kinds))

    @settings(max_examples=100, deadline=None)
    @given(analyze_rows(), CHUNKS)
    def test_text_matches_dict_rows(self, rows, chunk):
        slots, probabilities = rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CHUNK", chunk)
            chunks = list(cli._Rows(slots, probabilities).lines())
        assert len(chunks) == -(-probabilities.size // chunk)
        assert "\n".join(chunks) == "\n".join(
            f"  {','.join(labels)}  {cli._fmt(p)}" for labels, p in zip(itertools.product(*slots), probabilities)
        )


class TestResourceFailure:
    def test_memory_error_is_input_error(self, capsys, monkeypatch):
        def exhausted(family, tol):
            raise MemoryError

        monkeypatch.setattr(cli, "consistency_check", exhausted)
        code, out, err = run(capsys, "analyze", str(gallery("repeated_x")))
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("analyze", "CHAIN", "--json"), 0),  # 16384 rows: the pipe closes mid-document
            (("analyze", "CHAIN"), 0),
            (("analyze", str(gallery("zxz_inconsistent"))), 2),
            (("classify", str(gallery("stable_facts")), "--json"), 0),
            (("verify", "CHAIN"), 0),
            (("validate", "CHAIN"), 0),
        ],
        ids=["analyze_json", "analyze_text", "analyze_inconsistent", "classify_json", "verify", "validate"],
    )
    def test_closed_pipe_ends_quietly_with_the_command_code(self, tmp_path, argv, code):
        """``qhist ... | head -c 0``: the reader is gone before the first write."""
        times = [f"t{k}" for k in range(15)]
        chain = write(tmp_path, one_qubit(
            name="sz_chain_14", times=times,
            observers=[{"name": "O1", "measurements": [{"time": t, "observable": "sigma_z"} for t in times[1:]]}],
        ))
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qhist.cli", *(chain if a == "CHAIN" else a for a in argv)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120, check=False,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code  # docs/report.md: the command's own code
        assert proc.stderr == b""

    @pytest.mark.parametrize("flags", [("--json",), ()], ids=["analyze_json", "analyze_text"])
    def test_a_pipe_closed_mid_document_ends_quietly(self, tmp_path, flags):
        """``qhist analyze ... | head -c 65536``: the reader leaves mid-document, after some rows."""
        times = [f"t{k}" for k in range(15)]
        chain = write(tmp_path, one_qubit(
            name="sz_chain_14", times=times,
            observers=[{"name": "O1", "measurements": [{"time": t, "observable": "sigma_z"} for t in times[1:]]}],
        ))
        with tempfile.TemporaryFile() as err:
            proc = subprocess.Popen([sys.executable, "-m", "qhist.cli", "analyze", chain, *flags],
                                    stdout=subprocess.PIPE, stderr=err, env=qhist_env())
            head = proc.stdout.read(65536)
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err.seek(0)
            assert err.read() == b""
        assert len(head) == 65536  # 16384 rows are over 64 KiB in either rendering
        assert code == 0

    @pytest.mark.parametrize("argv, code", [
        (("validate", str(gallery("stable_facts"))), 0),
        (("analyze", str(gallery("zxz_inconsistent")), "--json"), 2),
        (("analyze", str(gallery("zxz_inconsistent"))), 2),
    ])
    def test_no_stdout_at_all_ends_quietly_with_the_command_code(self, argv, code):
        """``qhist ... >&-``: Python starts with no ``sys.stdout``, and the output goes nowhere."""
        proc = subprocess.run(["sh", "-c", 'exec "$0" -m qhist.cli "$@" >&-', sys.executable, *argv],
                              stderr=subprocess.PIPE, env=qhist_env(), timeout=120, check=False)
        assert proc.returncode == code
        assert proc.stderr == b""


def _four_observers(tmp_path) -> str:
    """stable_facts with two more observers; every pair is stable, so the
    n-way fold runs all three of its steps."""
    doc = json.loads(gallery("stable_facts").read_text())
    doc["name"] = "four_observers"
    doc["observers"] += [
        {"name": "O3", "measurements": []},
        {"name": "O4", "measurements": [{"time": "t1", "observable": "sigma_x@1"}]},
    ]
    return write(tmp_path, doc)


def _family_key(family) -> tuple:
    """A family's content: two families with equal keys are the same family."""
    return (
        family.initial_ket.tobytes(),
        tuple(ev.unitary.tobytes() for ev in family.evolutions),
        tuple((d.labels, tuple(p.tobytes() for p in d.projectors)) for d in family.slot_decompositions),
    )


class TestSolveOnce:
    """Each command evaluates each distinct family's consistency once, and
    classify checks each distinct pair once."""

    def _commands(self, tmp_path):
        commands = [[e["command"], str(gallery(e["scenario"])), *e["args"]] for e in GOLDEN]
        four = _four_observers(tmp_path)
        combined = ["--family", "combined",
                    "--event", "t2:+z∧+x∧any∧any", "--given", "t1:+x∧+x∧any∧+x"]
        return commands + [
            ["classify", four],
            ["classify", four, "--json"],
            ["classify", write(tmp_path, CONDITION2), "--json"],
            ["conditional", four, *combined],
            ["conditional", four, "--json", *combined],
        ]

    def test_each_family_solved_once(self, capsys, monkeypatch, tmp_path):
        solved, pairs = [], []
        consistency_check = qhist.histories.consistency_check
        check_compatibility = qhist.stablefacts.check_compatibility

        def counted_consistency(family, tol):
            solved.append(_family_key(family))
            return consistency_check(family, tol)

        def counted_compatibility(a, b, *args):
            pairs.append((_family_key(a.family), _family_key(b.family)))
            return check_compatibility(a, b, *args)

        for module in (qhist.histories, qhist.stablefacts, cli):
            monkeypatch.setattr(module, "consistency_check", counted_consistency)
        for module in (qhist.stablefacts, cli):
            monkeypatch.setattr(module, "check_compatibility", counted_compatibility)
        for argv in self._commands(tmp_path):
            solved.clear()
            pairs.clear()
            cli.main(argv)
            capsys.readouterr()
            assert len(solved) == len(set(solved)), argv
            assert len(pairs) == len(set(pairs)), argv
            if "four_observers" in argv[1]:
                # classify: six pairs, then the fold's two steps past (O1, O2);
                # conditional: the fold's three steps
                expected = 8 if argv[0] == "classify" else 3
                assert len(pairs) == len(solved) == expected, argv
