import importlib.util
import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhist.errors import (
    DimMismatchError,
    QHistError,
    ScenarioError,
    ScenarioParseError,
    UnknownFieldError,
    UnknownOperatorError,
)
from qhist.linalg import SIGMA_Z, identity, max_abs
from qhist.scenario import (
    Measurement,
    MatrixObservable,
    NamedObservable,
    ObserverSpec,
    ProjectorListObservable,
    Scenario,
    _INT_OVERFLOW,
    _parse_array,
    parse_scenario,
    resolve,
    serialize_scenario,
)

from helpers import GALLERY_NAMES, gallery, random_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]

MINIMAL = {
    "format": 1,
    "name": "minimal",
    "systems": [2],
    "initial_state": "up_z",
    "times": ["t0", "t1"],
    "observers": [
        {"name": "O1", "measurements": [{"time": "t1", "observable": "sigma_z"}]}
    ],
}


def doc(**overrides) -> str:
    merged = {**MINIMAL, **overrides}
    return json.dumps(merged)


class TestParse:
    def test_minimal_document(self):
        scn = parse_scenario(doc())
        assert scn.name == "minimal"
        assert scn.total_dim == 2
        assert scn.evolutions == ("identity",)  # default-filled
        records = resolve(scn)
        assert len(records) == 1
        assert records[0].family.n_slots == 1

    def test_unknown_operator_names_path(self):
        with pytest.raises(UnknownOperatorError) as excinfo:
            parse_scenario(
                doc(observers=[{"name": "O1", "measurements": [{"time": "t1", "observable": "sigma_q"}]}])
            )
        assert "observers[0].measurements[0]" in str(excinfo.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(UnknownFieldError):
            parse_scenario(doc(comment="not allowed"))

    def test_wrong_format_version(self):
        # only the int 1 is format 1: a bool or a float equal to 1 is refused, as in every other field
        for version in (2, True, 1.0, "1"):
            with pytest.raises(ScenarioError) as excinfo:
                parse_scenario(doc(format=version))
            assert excinfo.value.path == "$.format"
            assert str(excinfo.value) == f"$.format: unsupported format {version!r}, expected 1"

    def test_invalid_json_reports_location(self):
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(b"{not json")
        assert "line" in str(excinfo.value)

    @pytest.mark.parametrize("matrix, message", [
        (5, "$.evolutions[0].matrix: expected a matrix as nested arrays of [re, im] pairs"),
        ([5, 6], "$.evolutions[0].matrix[0]: expected an array of [re, im] pairs"),
    ])
    def test_a_matrix_not_of_nested_arrays_is_named(self, matrix, message):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc(evolutions=[{"matrix": matrix}]))
        assert type(excinfo.value) is ScenarioError
        assert str(excinfo.value) == message

    def test_an_integer_past_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(b'{"a": ' + b"1" * 5000 + b"}")
        assert excinfo.value.path == "$"
        assert str(excinfo.value).startswith("$: invalid JSON: Exceeds the limit")

    @pytest.mark.parametrize("text, message", [
        ('{"a": 1, "b": 2, "a": 3}', "duplicate key 'a'"),
        ('{"format": 1, "x": [{"c": 0, "b": [], "c": [], "b": 1}]}', "duplicate key 'c'"),
        (doc().replace('"measurements": [', '"measurements": [], "measurements": ['), "duplicate key 'measurements'"),
    ])
    def test_a_repeated_key_is_refused_at_reading(self, text, message):
        # before, json.loads kept the last value: the observer measured nothing
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(text.encode())
        assert str(excinfo.value) == f"$: invalid JSON: {message}"

    @pytest.mark.parametrize("text, surrogate", [
        (doc(name="a\ud800b"), "\ud800"),
        ('{"\\udc00": ["\\ud800"]}', "\udc00"),
        ('{"a": [["x", "\\ud83d"]], "b": "\\udfff"}', "\ud83d"),
        ('{"a": "\\ud83d\\ude00\\ud800"}', "\ud800"),
        ('{"name": "\ud800"}', "\ud800"),  # raw, in a str
    ])
    def test_a_lone_surrogate_is_refused_at_reading(self, text, surrogate):
        # before, validate accepted one, and analyze failed as it wrote the name
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(text)
        assert str(excinfo.value) == f"$: not valid UTF-8: lone surrogate {surrogate!r}"

    def test_a_surrogate_pair_escape_and_other_text_are_read(self):
        for name in ("\U0001f600", "café", "back\\slash"):
            assert parse_scenario(doc(name=name)).name == name
            assert parse_scenario(json.dumps({**MINIMAL, "name": name}, ensure_ascii=False).encode()).name == name

    def test_a_byte_order_mark_is_refused_as_json_loads_refuses_it(self):
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(b"\xef\xbb\xbf" + doc().encode())
        assert str(excinfo.value) == "line 1, column 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"

    def test_dim_cap(self):
        with pytest.raises(DimMismatchError):
            parse_scenario(doc(systems=[8, 8, 2], initial_state={"vector": [[1, 0]] + [[0, 0]] * 127}))

    def test_preset_needs_qubit_factor(self):
        with pytest.raises(DimMismatchError):
            parse_scenario(doc(systems=[3], initial_state="up_z", observers=[]))

    def test_unnormalized_vector_rejected(self):
        # the unit norm is a resolution check, made under the effective tolerance
        with pytest.raises(ScenarioError):
            resolve(parse_scenario(doc(initial_state={"vector": [[1, 0], [1, 0]]})))

    def test_measurement_at_t0_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(
                doc(observers=[{"name": "O1", "measurements": [{"time": "t0", "observable": "sigma_z"}]}])
            )

    def test_double_measurement_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(
                doc(
                    observers=[
                        {
                            "name": "O1",
                            "measurements": [
                                {"time": "t1", "observable": "sigma_z"},
                                {"time": "t1", "observable": "sigma_x"},
                            ],
                        }
                    ]
                )
            )

    def test_bare_pauli_needs_single_qubit(self):
        with pytest.raises(DimMismatchError):
            parse_scenario(
                doc(
                    systems=[2, 2],
                    initial_state=["up_z", "up_z"],
                    observers=[{"name": "O1", "measurements": [{"time": "t1", "observable": "sigma_x"}]}],
                )
            )

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(doc(tolerance={"cons": 0.5}))

    @pytest.mark.parametrize("name", ["sigma_z@²", "sigma_z@１", "sigma_z@٢", "sigma_z@+1", "sigma_z@ 1"])
    def test_a_factor_suffix_of_other_than_ascii_digits_is_unknown(self, name):
        # "²" passes str.isdigit but not int(); "１" and "٢" pass both
        observers = [{"name": "O1", "measurements": [{"time": "t1", "observable": name}]}]
        with pytest.raises(UnknownOperatorError) as excinfo:
            parse_scenario(doc(systems=[2, 2], initial_state=["up_z", "up_z"], observers=observers))
        assert excinfo.value.path == "$.observers[0].measurements[0].observable"
        assert str(excinfo.value).endswith(f"subsystem index in {name!r} must be 1..2")

    @pytest.mark.parametrize("label", ["p∧q", "∧", "a∨b", "x∨"])
    def test_a_projector_label_with_a_joiner_is_refused(self, label):
        projectors = [{"label": "up", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                      {"label": label, "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}]
        observers = [{"name": "O1", "measurements": [{"time": "t1", "observable": {"projectors": projectors}}]}]
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc(observers=observers))
        assert excinfo.value.path == "$.observers[0].measurements[0].observable.projectors[1].label"
        assert "contains the joiner" in str(excinfo.value)


# A four-observer document on a qubit and a qutrit in which every observer
# measures t1..t4 with the names the others use, so that a fault placed at
# $.observers[2].measurements[3] follows eleven measurements of the same names.
FAULT_NAMES = ("sigma_z@1", "sigma_x@1", "identity@2", "sigma_y@1")
FAULT_AT = "$.observers[2].measurements[3]"
FAULTS = {  # kind: (the faulty measurement, its error type, its message after the path's prefix)
    "not an object": ("sigma_y@1", ScenarioError, ": expected an object"),
    "unknown field": ({"time": "t4", "observable": "sigma_y@1", "note": 1}, UnknownFieldError,
                      ".note: unknown field 'note'"),
    "missing time": ({"observable": "sigma_y@1"}, ScenarioError, ": missing required field 'time'"),
    "number time": ({"time": 4, "observable": "sigma_y@1"}, ScenarioError, ".time: expected a string"),
    "list time": ({"time": ["t4"], "observable": "sigma_y@1"}, ScenarioError, ".time: expected a string"),
    "dict time": ({"time": {"t": "t4"}, "observable": "sigma_y@1"}, ScenarioError, ".time: expected a string"),
    "off grid": ({"time": "t9", "observable": "sigma_y@1"}, ScenarioError, ".time: time 't9' is not on the grid"),
    "t0": ({"time": "t0", "observable": "sigma_y@1"}, ScenarioError,
           ".time: measurements at the initial time are not allowed; t0 carries the initial state"),
    "repeated time": ({"time": "t1", "observable": "sigma_y@1"}, ScenarioError,
                      ".time: observer 'O3' measures twice at 't1'"),
    "missing observable": ({"time": "t4"}, ScenarioError, ": missing required field 'observable'"),
    "unknown name": ({"time": "t4", "observable": "sigma_q"}, UnknownOperatorError,
                     ".observable: unknown operator 'sigma_q'"),
    "bad @k": ({"time": "t4", "observable": "sigma_y@3"}, UnknownOperatorError,
               ".observable: subsystem index in 'sigma_y@3' must be 1..2"),
    "Pauli on a qutrit": ({"time": "t4", "observable": "sigma_y@2"}, DimMismatchError,
                          ".observable: 'sigma_y@2' needs a qubit factor, dim is 3"),
}
READING = {"not an object", "unknown field", "missing time", "missing observable"}  # the rest are building's


def faulty_doc(faults: dict[tuple[int, int], object]) -> str:
    """The four-observer document, measurement (i, j) replaced by ``faults[i, j]``."""
    observers = [
        {"name": f"O{i + 1}",
         "measurements": [faults.get((i, j), {"time": f"t{j + 1}", "observable": name})
                          for j, name in enumerate(FAULT_NAMES)]}
        for i in range(4)
    ]
    return doc(systems=[2, 3], initial_state={"vector": [[1, 0]] + [[0, 0]] * 5},
               times=["t0", "t1", "t2", "t3", "t4"], observers=observers)


class TestMeasurementFaults:
    def test_the_document_without_a_fault_parses(self):
        scn = parse_scenario(faulty_doc({}))
        assert [m.observable.name for m in scn.observers[2].measurements] == list(FAULT_NAMES)

    @pytest.mark.parametrize("kind", FAULTS)
    def test_each_fault_is_named_at_its_path(self, kind):
        fault, error, message = FAULTS[kind]
        with pytest.raises(QHistError) as excinfo:
            parse_scenario(faulty_doc({(2, 3): fault}))
        assert type(excinfo.value) is error
        assert str(excinfo.value) == FAULT_AT + message

    def test_of_two_faults_the_first_in_document_order_is_raised(self):
        # the later fault in the same observer (after a fault at measurement 1)
        # or in the next one; reading's faults come before building's
        for first, second in itertools.product(FAULTS, repeat=2):
            for later in ((2, 3), (3, 0)):
                earlier = (2, 1) if later == (2, 3) else (2, 3)
                kind, (i, j) = (second, later) if second in READING and first not in READING else (first, earlier)
                with pytest.raises(QHistError) as excinfo:
                    parse_scenario(faulty_doc({earlier: FAULTS[first][0], later: FAULTS[second][0]}))
                assert type(excinfo.value) is FAULTS[kind][1], (first, second, later)
                assert str(excinfo.value) == f"$.observers[{i}].measurements[{j}]{FAULTS[kind][2]}"

    @pytest.mark.parametrize("fault, kind", [
        ({"time": 4, "note": 1}, "unknown field"),
        ({"note": 1}, "unknown field"),
        ({"time": "t1"}, "missing observable"),  # reading's fault before building's repeated time
        ({"time": ["t4"]}, "missing observable"),
        ({"time": "t0", "observable": "sigma_q"}, "t0"),
        ({"time": "t9"}, "missing observable"),
    ])
    def test_within_one_measurement_the_first_check_raises(self, fault, kind):
        with pytest.raises(QHistError) as excinfo:
            parse_scenario(faulty_doc({(2, 3): fault}))
        assert type(excinfo.value) is FAULTS[kind][1]
        assert str(excinfo.value) == FAULT_AT + FAULTS[kind][2]


OBSERVABLE_KINDS = "expected an operator name, {'matrix': ...}, or {'projectors': ...}"


@pytest.mark.parametrize(
    "observer, in_document, message",
    [
        (ObserverSpec("O1", (Measurement("t1", "sigma_z"),)),
         {"name": "O1", "measurements": [{"time": "t1", "observable": ["sigma_z"]}]},
         "$.observers[1].measurements[0].observable: " + OBSERVABLE_KINDS),
        (ObserverSpec("O1", (Measurement("t1", NamedObservable(5)),)),
         {"name": "O1", "measurements": [{"time": "t1", "observable": 5}]},
         "$.observers[1].measurements[0].observable: " + OBSERVABLE_KINDS),
        (ObserverSpec("O1", ("t1",)), {"name": "O1", "measurements": ["t1"]},
         "$.observers[1].measurements[0]: expected an object"),
        ("O1", "O1", "$.observers[1]: expected an object"),
    ],
    ids=["observable_not_an_observable", "name_not_a_string", "measurement_not_a_measurement",
         "observer_not_an_observer_spec"],
)
def test_a_hand_built_part_of_another_type_is_refused_as_in_a_document(observer, in_document, message):
    first = ObserverSpec("O0", (Measurement("t1", NamedObservable("sigma_z")),))
    with pytest.raises(ScenarioError) as excinfo:
        Scenario(name="minimal", subsystem_dims=(2,), initial_state=("up_z",), times=("t0", "t1"),
                 evolutions=("identity",), observers=(first, observer))
    assert type(excinfo.value) is ScenarioError
    assert str(excinfo.value) == message
    # the reader's error for the same fault in a document
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(doc(observers=[{"name": "O0", "measurements": [{"time": "t1", "observable": "sigma_z"}]},
                                      in_document]))
    assert (type(excinfo.value), str(excinfo.value)) == (ScenarioError, message)


UP = np.array([[1, 0], [0, 0]], dtype=complex)
PROJECTORS_AT = "$.observers[0].measurements[0].observable.projectors: expected an array of labelled projectors"


def minimal_parts(**parts) -> dict:
    """The parts of the hand-built ``MINIMAL``, with ``parts`` in place."""
    return {"name": "minimal", "subsystem_dims": (2,), "initial_state": ("up_z",), "times": ("t0", "t1"),
            "evolutions": ("identity",),
            "observers": (ObserverSpec("O1", (Measurement("t1", NamedObservable("sigma_z")),)),), **parts}


def with_projectors(labels, matrices) -> dict:
    return {"observers": (ObserverSpec("O1", (Measurement("t1", ProjectorListObservable(labels, matrices)),)),)}


IN_DOCUMENT_PROJECTORS = {"observers": [{"name": "O1", "measurements": [
    {"time": "t1", "observable": {"projectors": None}}]}]}


@pytest.mark.parametrize(
    "parts, in_document, message",
    [
        ({"subsystem_dims": 5}, {"systems": 5}, "$.systems: expected an array of factor dimensions"),
        ({"subsystem_dims": None}, {"systems": None}, "$.systems: expected an array of factor dimensions"),
        ({"times": None}, {"times": None}, "$.times: expected an array of time labels"),
        ({"times": 5}, {"times": 5}, "$.times: expected an array of time labels"),
        ({"evolutions": None}, {"evolutions": None}, "$.evolutions: expected an array"),
        ({"evolutions": 5}, {"evolutions": 5}, "$.evolutions: expected an array"),
        ({"tolerance_overrides": None}, {"tolerance": None}, "$.tolerance: expected an object"),
        ({"tolerance_overrides": 5}, {"tolerance": 5}, "$.tolerance: expected an object"),
        ({"initial_state": None}, {"initial_state": None},
         "$.initial_state: expected a preset name, a list of preset names, or {'vector': ...}"),
        ({"initial_state": 5}, {"initial_state": 5},
         "$.initial_state: expected a preset name, a list of preset names, or {'vector': ...}"),
        ({"observers": None}, {"observers": None}, "$.observers: expected an array"),
        ({"observers": (ObserverSpec("O1", None),)}, {"observers": [{"name": "O1", "measurements": None}]},
         "$.observers[0].measurements: expected an array"),
        (with_projectors(None, None), IN_DOCUMENT_PROJECTORS, PROJECTORS_AT),
        (with_projectors(("a",), None), IN_DOCUMENT_PROJECTORS, PROJECTORS_AT),
        (with_projectors(None, (UP,)), IN_DOCUMENT_PROJECTORS, PROJECTORS_AT),
    ],
    ids=["systems_5", "systems_none", "times_none", "times_5", "evolutions_none", "evolutions_5",
         "tolerance_none", "tolerance_5", "initial_state_none", "initial_state_5", "observers_none",
         "measurements_none", "projectors_none", "matrices_none", "labels_none"],
)
def test_a_hand_built_container_of_another_type_is_refused_as_in_a_document(parts, in_document, message):
    with pytest.raises(ScenarioError) as excinfo:
        Scenario(**minimal_parts(**parts))
    assert (type(excinfo.value), str(excinfo.value)) == (ScenarioError, message)
    # the reader's error for the same fault in a document
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(doc(**in_document))
    assert (type(excinfo.value), str(excinfo.value)) == (ScenarioError, message)


def test_a_hand_built_scenario_takes_lists_where_it_takes_tuples():
    down = np.array([[0, 0], [0, 1]], dtype=complex)
    observable = ProjectorListObservable(["up", "down"], [UP, down])
    listed = Scenario(**minimal_parts(subsystem_dims=[2], initial_state=[1, 0], times=["t0", "t1"],
                                      evolutions=["identity"], observers=[ObserverSpec("O1", [
                                          Measurement("t1", observable)])]))
    tupled = Scenario(**minimal_parts(initial_state=np.array([1, 0], dtype=complex), **with_projectors(
        ("up", "down"), (UP, down))))
    assert listed == tupled


class TestResolve:
    def test_subsystem_embedding(self):
        scn = parse_scenario(
            doc(
                systems=[2, 2],
                initial_state=["up_z", "up_z"],
                observers=[{"name": "O1", "measurements": [{"time": "t1", "observable": "sigma_z@1"}]}],
            )
        )
        decomp = resolve(scn)[0].family.slot_decompositions[0]
        plus = np.kron((identity(2) + SIGMA_Z) / 2, identity(2))
        assert max_abs(decomp.projector_for("+z") - plus) < 1e-15

    def test_a_factor_suffix_with_leading_zeros_shares_one_decomposition(self):
        measures = [{"time": "t1", "observable": "sigma_z@01"}, {"time": "t2", "observable": "sigma_z@1"}]
        scn = parse_scenario(
            doc(systems=[2, 2], initial_state=["up_z", "up_z"], times=["t0", "t1", "t2"],
                observers=[{"name": "O1", "measurements": measures}])
        )
        first, second = resolve(scn)[0].family.slot_decompositions
        assert first is second
        assert first.labels == ("+z", "-z")

    def test_bare_pauli_on_single_qubit(self):
        decomp = resolve(parse_scenario(doc()))[0].family.slot_decompositions[0]
        assert max_abs(decomp.projector_for("+z") - np.diag([1.0, 0.0])) < 1e-15

    def test_missing_slots_default_to_trivial(self):
        scn = parse_scenario(
            doc(
                times=["t0", "t1", "t2"],
                observers=[{"name": "O1", "measurements": [{"time": "t2", "observable": "sigma_x"}]}],
            )
        )
        family = resolve(scn)[0].family
        assert family.slot_decompositions[0].labels == ("any",)
        assert family.slot_decompositions[1].labels == ("+x", "-x")

    def test_observers_share_scenario_data(self):
        records = resolve(parse_scenario(gallery("stable_facts").read_bytes()))
        assert len(records) == 2
        a, b = records
        assert a.family.grid.labels == b.family.grid.labels
        assert np.array_equal(a.family.initial_ket, b.family.initial_ket)
        for ea, eb in zip(a.family.evolutions, b.family.evolutions):
            assert np.array_equal(ea.unitary, eb.unitary)

    def test_deterministic_resolution(self):
        # exercises both explicit projector lists and the eigenprojector path
        h = [[[0.3, 0.0], [0.1, -0.2]], [[0.1, 0.2], [-0.7, 0.0]]]
        sources = [
            gallery("measurement_fam1").read_bytes(),
            doc(observers=[{"name": "O1", "measurements": [{"time": "t1", "observable": {"matrix": h}}]}]).encode(),
        ]
        for data in sources:
            first = resolve(parse_scenario(data))
            second = resolve(parse_scenario(data))
            for ra, rb in zip(first, second):
                assert np.array_equal(ra.family.initial_ket, rb.family.initial_ket)
                for da, db in zip(ra.family.slot_decompositions, rb.family.slot_decompositions):
                    assert da.labels == db.labels
                    for pa, pb in zip(da.projectors, db.projectors):
                        assert np.array_equal(pa, pb)


class TestOncePerDistinctName:
    def test_a_hand_built_unknown_name_raises_at_its_first_use(self):
        # before, it was built, and resolve raised the error
        with pytest.raises(UnknownOperatorError) as excinfo:
            Scenario(
                name="twice", subsystem_dims=(2,), initial_state=("up_z",), times=("t0", "t1", "t2"),
                evolutions=("identity", "identity"),
                observers=(
                    ObserverSpec("O1", (Measurement("t1", NamedObservable("sigma_z")),)),
                    ObserverSpec("O2", (Measurement("t1", NamedObservable("sigma_x")),
                                        Measurement("t2", NamedObservable("sigma_q")))),
                    ObserverSpec("O3", (Measurement("t1", NamedObservable("sigma_q")),)),
                ),
            )
        assert str(excinfo.value) == "$.observers[1].measurements[1].observable: unknown operator 'sigma_q'"

    def test_nothing_is_kept_between_calls(self, observers_paths):
        data = observers_paths["all"].read_bytes()
        first, second = parse_scenario(data), parse_scenario(data)

        def observables(scn):
            return {id(m.observable) for obs in scn.observers for m in obs.measurements}

        assert not observables(first) & observables(second)
        ones, twos = resolve(first), resolve(first)

        def decompositions(records):
            return {id(d) for r in records for d in r.family.slot_decompositions}

        assert not decompositions(ones) & decompositions(twos)


class TestRoundTrip:
    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_shipped_gallery(self, name):
        data = gallery(name).read_bytes()
        scn = parse_scenario(data)
        assert parse_scenario(serialize_scenario(scn)) == scn
        assert serialize_scenario(parse_scenario(serialize_scenario(scn))) == serialize_scenario(scn)

    def test_the_gallery_is_what_make_gallery_builds(self):
        spec = importlib.util.spec_from_file_location("make_gallery", ROOT / "scripts" / "make_gallery.py")
        make_gallery = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_gallery)
        built = {scn.name: serialize_scenario(scn) for scn in (build() for build in make_gallery.BUILDERS)}
        assert sorted(built) == sorted(GALLERY_NAMES)
        for name, data in built.items():
            assert data == gallery(name).read_bytes(), name

    def test_a_scenario_equals_no_other_type(self):
        scn = parse_scenario(doc())
        assert scn.__eq__(scn.to_jsonable()) is NotImplemented
        assert scn != scn.to_jsonable() and scn != serialize_scenario(scn)

    def test_default_evolutions_serialized_explicitly(self):
        scn = parse_scenario(doc())  # document has no evolutions field
        data = serialize_scenario(scn)
        assert b'"evolutions"' in data and b'"identity"' in data

    def test_complex_amplitudes_reparse_exactly(self):
        amp = 1.0 / np.sqrt(3.0)
        vec = [[amp, 0.0], [0.0, -amp], [amp, 0.0], [0.0, 0.0]]
        scn = parse_scenario(doc(systems=[4], initial_state={"vector": vec}, observers=[]))
        again = parse_scenario(serialize_scenario(scn))
        assert np.array_equal(scn.initial_state, again.initial_state)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_generated_scenarios(self, seed):
        scn = random_scenario(np.random.default_rng(seed))
        data = serialize_scenario(scn)
        assert parse_scenario(data) == scn
        assert serialize_scenario(parse_scenario(data)) == data


# finite doubles; the edges are drawn on their own so that every run meets them
DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
BAD_NUMBERS = [True, "1", None, [1, 2, 3], 10**400]
# JSON integers that convert: beyond 2**53 (rounded), beyond int64, up to the
# largest below _INT_OVERFLOW; the edges are drawn on their own
INTEGERS = st.one_of(
    st.sampled_from([0, -1, 2**53 + 1, -(2**53) - 3, 2**63, -(2**64) - 1, _INT_OVERFLOW - 1, 1 - _INT_OVERFLOW]),
    st.integers(min_value=1 - _INT_OVERFLOW, max_value=_INT_OVERFLOW - 1),
)


@st.composite
def codec_scenarios(draw):
    """A scenario of total dimension 1 to 4 whose vector, evolution and
    observable matrix hold arbitrary finite doubles."""
    d = draw(st.integers(min_value=1, max_value=4))
    flat = np.array(draw(st.lists(DOUBLES, min_size=2 * (d + d * d), max_size=2 * (d + d * d))))
    vector = flat[: 2 * d].view(complex)
    matrix = flat[2 * d:].view(complex).reshape(d, d)
    observer = ObserverSpec(name="O1", measurements=(Measurement(time="t1", observable=MatrixObservable(matrix)),))
    return Scenario(name="codec", subsystem_dims=(d,), initial_state=vector, times=("t0", "t1"),
                    evolutions=(matrix,), observers=(observer,))


@st.composite
def mixed_arrays(draw):
    """A vector or matrix of dimension 1 to 4 as [re, im] pairs that mix JSON
    integers and floats, with its shape."""
    d = draw(st.integers(min_value=1, max_value=4))
    shape = draw(st.sampled_from([(d,), (d, d)]))
    size = 2 * math.prod(shape)
    numbers = draw(st.lists(st.one_of(INTEGERS, DOUBLES), min_size=size, max_size=size))
    pairs = [numbers[k : k + 2] for k in range(0, size, 2)]
    value = pairs if len(shape) == 1 else [pairs[r * d : (r + 1) * d] for r in range(d)]
    return json.loads(json.dumps(value)), shape


# what _parse_array reads: numbers that convert (ints past 2**53 rounded,
# -0.0 kept), ints from 2**1024 on, which do not, and entries, rows and whole
# values of other shapes or types
ARRAY_NUMBERS = st.one_of(
    st.sampled_from([0, -1, -0.0, 2**53 + 1, -(2**53) - 1]),
    st.integers(min_value=-(2**70), max_value=2**70),
    DOUBLES,
)
TOO_LARGE = [2**1024, -(2**1024) - 1, 2**1100]
NOT_A_PAIR = [True, None, "1", 1.5, [], [0], [0, 0, 0], [True, 0], [0, None], [0, "1"], [[0, 0], [0, 0]], {"re": 0}]
NOT_AN_ARRAY = [5, None, True, "m", {"m": []}]


@st.composite
def raw_arrays(draw):
    """A vector or, when the second item is true, matrix of up to 4 x 4
    entries as JSON reads it, valid or with up to two faults: a faulty entry,
    a number too large for a double, a row that is not an array, an empty
    row, a row of another length, or (one draw in ten) a whole value that is
    empty or not an array."""
    matrix = draw(st.booleans())
    width = draw(st.integers(1, 4))
    pairs = st.lists(st.lists(ARRAY_NUMBERS, min_size=2, max_size=2), min_size=width, max_size=width)
    rows = [draw(pairs) for _ in range(draw(st.integers(1, 4)) if matrix else 1)]
    for fault in draw(st.lists(st.sampled_from(["pair", "too large", "row", "empty row", "ragged"]), max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        if fault in ("pair", "too large") and type(rows[i]) is list and rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            if fault == "pair":
                rows[i][j] = json.loads(json.dumps(draw(st.sampled_from(NOT_A_PAIR))))  # a copy: it may change
            elif type(rows[i][j]) is list and len(rows[i][j]) == 2:
                rows[i][j][draw(st.integers(0, 1))] = draw(st.sampled_from(TOO_LARGE))
        elif fault == "row":
            rows[i] = draw(st.sampled_from(NOT_AN_ARRAY))
        elif fault == "empty row":
            rows[i] = []
        elif fault == "ragged" and type(rows[i]) is list:
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [[0, 0]]
    value = rows if matrix else rows[0]
    if draw(st.integers(0, 9)) == 0:
        value = draw(st.sampled_from([[], *NOT_AN_ARRAY]))
    return value, matrix


def first_fault(value, matrix: bool) -> tuple[str, str] | None:
    """The JSONPath (under "$.m") and message of the first fault of
    ``value``, walked entry by entry in row-major order, then for rows of
    unequal length, then for a number too large for a double; None when it
    has none."""
    if matrix and type(value) is not list:
        return "$.m", "expected a matrix as nested arrays of [re, im] pairs"
    rows = value if matrix else [value]
    if not rows:
        return "$.m", "matrix must be nonempty"

    def at(i: int) -> str:
        return f"$.m[{i}]" if matrix else "$.m"

    for i, row in enumerate(rows):
        if type(row) is not list:
            return at(i), "expected an array of [re, im] pairs"
        if not row:
            return at(i), "vector must be nonempty"
        for j, z in enumerate(row):
            if type(z) is not list or len(z) != 2 or any(type(x) not in (int, float) for x in z):
                return f"{at(i)}[{j}]", "expected a complex number as [re, im]"
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            return "$.m", f"row {i} has length {len(row)}, expected {len(rows[0])}"
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            for x in z:
                try:
                    float(x)
                except OverflowError:
                    return f"{at(i)}[{j}]", "number does not fit an IEEE-754 double"
    return None


class TestCodec:
    """The numeric arrays survive a serialize/parse round trip bit for bit,
    and a bad entry anywhere is an error naming that entry."""

    @given(codec_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_arrays_round_trip_bit_for_bit(self, scn):
        data = serialize_scenario(scn)
        again = parse_scenario(data)
        matrix = scn.evolutions[0].tobytes()
        assert again.initial_state.tobytes() == scn.initial_state.tobytes()
        assert again.evolutions[0].tobytes() == matrix
        assert again.observers[0].measurements[0].observable.matrix.tobytes() == matrix
        assert serialize_scenario(again) == data

    @given(codec_scenarios(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bad_entry_is_named(self, scn, data):
        document = scn.to_jsonable()
        arrays = {
            "$.initial_state.vector": [document["initial_state"]["vector"]],
            "$.evolutions[0].matrix": document["evolutions"][0]["matrix"],
            "$.observers[0].measurements[0].observable.matrix":
                document["observers"][0]["measurements"][0]["observable"]["matrix"],
        }
        path = data.draw(st.sampled_from(sorted(arrays)))
        rows = arrays[path]
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(rows[i]) - 1))
        bad = data.draw(st.sampled_from(BAD_NUMBERS))
        part = data.draw(st.sampled_from([None, 0, 1]))  # the whole pair, or its re or im
        if part is None:
            rows[i][j] = bad
        else:
            rows[i][j][part] = bad
        entry = f"{path}[{j}]" if path.endswith("vector") else f"{path}[{i}][{j}]"
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(json.dumps(document))
        assert excinfo.value.path == entry

    @given(mixed_arrays())
    @settings(max_examples=200, deadline=None)
    def test_integer_entries_convert_as_numpy_does(self, array):
        value, shape = array
        expected = np.array(value, dtype=np.float64).view(np.complex128).reshape(shape)
        assert _parse_array(value, "$.m", len(shape) == 2).tobytes() == expected.tobytes()

    @given(raw_arrays())
    @settings(max_examples=300, deadline=None)
    def test_an_array_converts_as_numpy_does_or_its_first_fault_is_named(self, array):
        value, matrix = array
        fault = first_fault(value, matrix)
        if fault is None:
            expected = np.array(value, dtype=np.float64).view(np.complex128)
            parsed = _parse_array(value, "$.m", matrix)
            assert (parsed.shape, parsed.tobytes()) == (expected.shape[:-1], expected.tobytes())
        else:
            with pytest.raises(ScenarioError) as excinfo:
                _parse_array(value, "$.m", matrix)
            path, message = fault
            assert (type(excinfo.value), excinfo.value.path, str(excinfo.value)) == (
                ScenarioError, path, f"{path}: {message}")

    @given(mixed_arrays(), st.sampled_from([_INT_OVERFLOW, -_INT_OVERFLOW, 2**1024]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_an_integer_too_large_for_a_double_is_named(self, array, big, data):
        value, shape = array
        rows = value if len(shape) == 2 else [value]
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(rows[i]) - 1))
        rows[i][j][data.draw(st.sampled_from([0, 1]))] = big
        with pytest.raises(ScenarioError, match="does not fit an IEEE-754 double") as excinfo:
            _parse_array(value, "$.m", len(shape) == 2)
        assert excinfo.value.path == (f"$.m[{i}][{j}]" if len(shape) == 2 else f"$.m[{j}]")
