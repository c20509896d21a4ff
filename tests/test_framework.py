import gc
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhist.errors import (
    BadDecompositionError,
    DimMismatchError,
    DuplicateLabelError,
    IncompatibleFrameworksError,
    NotAProjectorError,
    NotCompleteError,
    NotOrthogonalError,
    QHistError,
)
from qhist.framework import (
    UNDEFINED,
    ProjectiveDecomposition,
    _ExactDecomposition,
    _pair_products,
    _check_orthogonal,
    _stacked,
    _validated,
    conjunction,
    decompositions_compatible,
    make_decomposition,
    negation,
    refine,
)
from qhist.histories import build_family
from qhist.linalg import DEFAULT_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z, Tolerance, identity, max_abs, tensor_product
from qhist.stablefacts import information_preserved

from helpers import (
    coordinate_decomposition,
    pauli_decomposition,
    random_decomposition,
    random_family,
    random_unitary,
    reference_compatible,
    reference_decomposition_error,
    reference_information_preserved,
    reference_products,
)

I2 = identity(2)
P_UP = np.diag([1.0, 0.0]).astype(complex)
P_DOWN = np.diag([0.0, 1.0]).astype(complex)


class TestMakeDecomposition:
    def test_sigma_z_pair(self):
        d = make_decomposition([(I2 + SIGMA_Z) / 2, (I2 - SIGMA_Z) / 2], ["+z", "-z"])
        assert d.dim == 2 and d.labels == ("+z", "-z")

    def test_trivial_sample_space(self):
        d = make_decomposition([I2], ["any"])
        assert len(d) == 1

    def test_non_orthogonal_pair_rejected(self):
        # (1+sz)/2 + (1+sx)/2 is neither orthogonal nor complete
        with pytest.raises((NotOrthogonalError, NotCompleteError)):
            make_decomposition([(I2 + SIGMA_Z) / 2, (I2 + SIGMA_X) / 2], ["a", "b"])

    def test_incomplete_rejected(self):
        with pytest.raises(NotCompleteError):
            make_decomposition([P_UP], ["up"])

    def test_non_projector_rejected_with_index(self):
        with pytest.raises(NotAProjectorError, match="1"):
            make_decomposition([P_UP, SIGMA_X], ["a", "b"])

    @pytest.mark.parametrize(
        "mats, error, message",
        [
            ([0.5 * I2, identity(3)], DimMismatchError, "projector 1 has shape"),  # structure before values
            ([P_UP, identity(3), 0.5 * I2], DimMismatchError, "projector 1 has shape"),
            ([np.ones((2, 3)), 0.5 * I2], DimMismatchError, "projector 0 has shape"),
        ],
        ids=["projector_before_shape", "shape_before_projector", "shape_at_index_0"],
    )
    def test_first_failing_element_is_named(self, mats, error, message):
        # the stacked checks raise what the per-element order meets first
        with pytest.raises(error, match=message):
            make_decomposition(mats, [f"p{i}" for i in range(len(mats))])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabelError):
            make_decomposition([P_UP, P_DOWN], ["same", "same"])

    def test_more_projectors_than_labels_rejected(self):
        with pytest.raises(DuplicateLabelError, match="2 projectors but 1 labels"):
            make_decomposition([P_UP, P_DOWN], ["only"])

    def test_projectors_are_frozen(self):
        up, down = P_UP.copy(), P_DOWN.copy()
        d = make_decomposition([up, down], ["a", "b"])
        assert isinstance(d.projectors, np.ndarray) and d.projectors.shape == (2, 2, 2)
        assert not d.projectors.flags.writeable
        with pytest.raises(ValueError):
            d.projectors[0][0, 0] = 0.0
        with pytest.raises(ValueError):
            d.projectors[1, 1, 1] = 0.0
        # the stack is a copy: writing to the caller's matrices leaves it alone
        up[0, 0] = 0.5
        down[1, 1] = 0.5
        assert np.array_equal(d.projectors, np.stack([P_UP, P_DOWN]))


class TestConjunction:
    def test_with_identity(self):
        p = (I2 + SIGMA_Z) / 2
        assert np.allclose(conjunction(p, I2), p)

    def test_non_commuting_is_undefined(self):
        # the conjunction of non-commuting properties is meaningless, not false
        result = conjunction((I2 + SIGMA_Z) / 2, (I2 + SIGMA_X) / 2)
        assert result is UNDEFINED

    def test_disjoint_subsystems_commute(self):
        p = tensor_product(P_UP, I2)
        q = tensor_product(I2, P_UP)
        got = conjunction(p, q)
        assert np.allclose(got, np.diag([1, 0, 0, 0]))

    def test_non_projector_rejected(self):
        with pytest.raises(NotAProjectorError):
            conjunction(SIGMA_X, I2)

    def test_projectors_of_unequal_dims_rejected(self):
        with pytest.raises(DimMismatchError) as excinfo:
            conjunction(P_UP, tensor_product(P_UP, I2))
        assert str(excinfo.value) == "conjunction needs equal dims, got (2, 2) and (4, 4)"

    def test_undefined_reads_as_its_name(self):
        assert repr(UNDEFINED) == "Undefined"

    def test_symmetric_when_defined(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            decomp = random_decomposition(rng, d)
            idx = rng.integers(0, len(decomp), size=2)
            p, q = decomp.projectors[idx[0]], decomp.projectors[idx[1]]
            left = conjunction(p, q)
            right = conjunction(q, p)
            assert left is not UNDEFINED and right is not UNDEFINED
            assert max_abs(left - right) <= 1e-9


class TestNegation:
    def test_identity_negates_to_zero(self):
        assert max_abs(negation(I2)) == 0.0

    def test_basis_projector(self):
        assert np.array_equal(negation(P_UP), P_DOWN)

    def test_pauli_eigenprojector(self):
        assert np.allclose(negation((I2 + SIGMA_X) / 2), (I2 - SIGMA_X) / 2)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_double_negation_on_dyadic_projectors(self, seed):
        # exact bit-level round trip for projectors whose entries are dyadic
        # (Pauli eigenprojectors and their tensor products)
        rng = np.random.default_rng(seed)
        ops = [I2, SIGMA_X, SIGMA_Y, SIGMA_Z]
        a = (I2 + ops[rng.integers(0, 4)]) / 2
        b = (I2 + ops[rng.integers(0, 4)]) / 2
        p = tensor_product(a, b)
        assert np.array_equal(negation(negation(p)), p)

    def test_double_negation_on_generic_projectors(self, rng):
        # generic diagonal entries can round through 1-(1-p) with an ulp of
        # error, so only float-faithful equality is required here
        for _ in range(10):
            p = random_decomposition(rng, 5).projectors[0]
            assert max_abs(negation(negation(p)) - p) < 1e-15


class TestCompatibility:
    def test_sigma_z_vs_sigma_y(self):
        check = decompositions_compatible(pauli_decomposition("z"), pauli_decomposition("y"))
        assert not check.compatible
        assert check.max_residual == pytest.approx(0.5, abs=1e-12)
        assert check.worst_pair is not None

    def test_anything_vs_trivial(self, rng):
        trivial = make_decomposition([identity(4)], ["any"])
        check = decompositions_compatible(random_decomposition(rng, 4), trivial)
        assert check.compatible

    def test_disjoint_subsystems(self):
        a = pauli_decomposition("z", factor=1, dims=(2, 2))
        b = pauli_decomposition("x", factor=2, dims=(2, 2))
        check = decompositions_compatible(a, b)
        assert check.compatible and check.max_residual < 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            decompositions_compatible(pauli_decomposition("z"), random_decomposition(np.random.default_rng(0), 3))


class TestRefine:
    def test_refine_with_trivial_is_identity(self):
        d = pauli_decomposition("z")
        trivial = make_decomposition([I2], ["any"])
        refined = refine(d, trivial)
        assert len(refined) == len(d)
        for p, q in zip(refined.projectors, d.projectors):
            assert max_abs(p - q) < 1e-12

    def test_product_basis(self):
        a = pauli_decomposition("z", factor=1, dims=(2, 2))
        b = pauli_decomposition("z", factor=2, dims=(2, 2))
        refined = refine(a, b)
        assert len(refined) == 4
        for p in refined.projectors:
            assert abs(np.trace(p) - 1.0) < 1e-12  # all rank one
        assert refined.labels == ("+z∧+z", "+z∧-z", "-z∧+z", "-z∧-z")

    def test_incompatible_rejected(self):
        with pytest.raises(IncompatibleFrameworksError):
            refine(pauli_decomposition("z"), pauli_decomposition("x"))

    def test_products_that_fail_validation_are_refused(self):
        # bases 1e-4 apart commute within comm=1e-3, yet their products are not Hermitian
        theta = 1e-4
        v, w = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
        tilted = make_decomposition([np.outer(v, v), np.outer(w, w)], ["v", "w"])
        with pytest.raises(NotAProjectorError, match=r"element 0 \('\+z∧v'\) is not a projector"):
            refine(pauli_decomposition("z"), tilted, Tolerance(comm=1e-3))

    def test_size_bounds_and_parenthood(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            u_diag = random_decomposition(rng, d)
            # conjugate a coarser diagonal split by the same unitary: commuting
            base = u_diag.projectors
            a = u_diag
            half = max(1, len(base) // 2)
            b = make_decomposition(
                [sum(base[:half]), sum(base[half:])] if len(base) > 1 else [identity(d)],
                ["lo", "hi"] if len(base) > 1 else ["any"],
            )
            refined = refine(a, b)
            assert max(len(a), len(b)) <= len(refined) <= len(a) * len(b)
            for label, r in refined.items():
                parent_label = label.split("∧")[0]
                parent = a.projector_for(parent_label)
                assert max_abs(parent @ r - r) < 1e-9

    def test_fold_order_does_not_change_projector_set(self):
        a = pauli_decomposition("z", factor=1, dims=(2, 2))
        b = pauli_decomposition("z", factor=2, dims=(2, 2))
        c = make_decomposition(
            [np.diag([1, 1, 0, 0]).astype(complex), np.diag([0, 0, 1, 1]).astype(complex)],
            ["top", "bottom"],
        )
        first = refine(refine(a, b), c)
        second = refine(refine(c, b), a)
        assert len(first) == len(second)
        for p in first.projectors:
            assert any(max_abs(p - q) < 1e-12 for q in second.projectors)


    def test_a_table_is_exact_only_when_every_dropped_product_is_zero(self):
        # a diagonal stand-in for an exact product with entries 2^-10, as a
        # 10-qubit (1 ± sigma_x)/2 product has: at proj 1e-3 it is dropped
        small = 2.0**-10 * P_UP
        a = _ExactDecomposition(2, np.stack([P_UP, P_DOWN]), ("up", "down"))
        b = _ExactDecomposition(2, np.stack([small, I2 - small]), ("s", "r"))
        table = _pair_products(a, b, Tolerance(proj=1e-3))
        assert table.check.max_residual == 0.0 and table.keep.tolist() == [[False, True], [False, True]]
        assert not table.exact
        assert _pair_products(a, b, Tolerance(proj=0.0)).exact  # down·s, the one dropped, is exactly zero
        plain = ProjectiveDecomposition(2, a.projectors, a.labels)
        assert not _pair_products(plain, b, Tolerance(proj=0.0)).exact


def _outcome(projectors, labels) -> tuple:
    """What ``make_decomposition`` gives: its labels and projector bytes, or
    its error's type and message."""
    try:
        decomp = make_decomposition(projectors, labels)
    except (QHistError, ValueError) as exc:
        return type(exc), str(exc)
    return decomp.labels, decomp.projectors.tobytes()


# the indices each make_decomposition error names, read back from its message
NAMED_INDICES = {
    DuplicateLabelError: r"at index (\d+) repeats index (\d+)",
    DimMismatchError: r"^projector (\d+) has shape",
    NotAProjectorError: r"^element (\d+) ",
    NotOrthogonalError: r"^projectors (\d+) and (\d+) are not orthogonal",
    NotCompleteError: r"^projectors do not sum to identity",
    ValueError: r"^matrix entries must be finite$",
}

PERTURBATIONS = ("halve", "skew", "duplicate", "drop", "reshape", "relabel", "rotate", "nan", "truncate")


def _perturb(rng: np.random.Generator, mats: list, labels: list, kind: str) -> None:
    """Break the list ``mats``/``labels`` in place in one of the ways of ``PERTURBATIONS``."""
    k = int(rng.integers(len(mats)))
    d = mats[k].shape[0]
    if kind == "halve":  # not idempotent
        mats[k] = 0.5 * mats[k]
    elif kind == "skew":  # not Hermitian
        mats[k] = mats[k] + 1e-3 * np.triu(np.ones(mats[k].shape), 1)
    elif kind == "duplicate":  # a second copy is not orthogonal to the first
        at = int(rng.integers(len(mats) + 1))
        mats.insert(at, mats[k].copy())
        labels.insert(at, f"copy{len(labels)}")
    elif kind == "drop" and len(mats) > 1:  # incomplete
        del mats[k], labels[k]
    elif kind == "reshape":
        mats[k] = identity(d + 1)
    elif kind == "relabel":
        labels[k] = labels[int(rng.integers(len(labels)))]
    elif kind == "rotate":  # a projector, but onto a random ray
        v = random_unitary(rng, d)[:, 0]
        mats[k] = np.outer(v, v.conj())
    elif kind == "nan":  # not a finite matrix
        mats[k] = mats[k].copy()
        mats[k][int(rng.integers(d)), int(rng.integers(mats[k].shape[1]))] = np.nan
    elif kind == "truncate":  # every element loses its last column: one shape, not square
        mats[:] = [m[:, :-1] if m.shape[1] > 1 else m for m in mats]


@st.composite
def decomposition_pairs(draw):
    """Two decompositions of one dimension: Pauli pairs (whose residuals tie),
    random bases, coordinate groupings (products exactly zero), a
    decomposition with a coarsening of itself, or with itself."""
    kind = draw(st.sampled_from(["pauli", "random", "coordinate", "coarsening", "self"]))
    if kind == "pauli":
        dims = draw(st.sampled_from([(2,), (2, 2)]))
        return tuple(
            pauli_decomposition(draw(st.sampled_from("xyz")), draw(st.integers(1, len(dims))), dims)
            for _ in range(2)
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 12))
    if kind == "random":
        return random_decomposition(rng, d), random_decomposition(rng, d)
    if kind == "coordinate":
        return coordinate_decomposition(rng, d), coordinate_decomposition(rng, d)
    a = random_decomposition(rng, d)
    if kind == "self":
        return a, a
    cut = int(rng.integers(1, len(a) + 1))
    groups = [a.projectors[:cut], a.projectors[cut:]] if cut < len(a) else [a.projectors]
    return a, make_decomposition([g.sum(axis=0) for g in groups], [f"g{k}" for k in range(len(groups))])


class TestRowProductsMatchPairLoops:
    """Each row product against the per-pair loop it replaced (``helpers.reference_*``)."""

    @given(decomposition_pairs())
    @settings(max_examples=120, deadline=None)
    def test_compatibility(self, pair):
        a, b = pair
        check = decompositions_compatible(a, b)
        expected = reference_compatible(a, b)
        assert check.compatible == expected.compatible
        assert check.max_residual == expected.max_residual  # bit for bit
        assert check.worst_pair == expected.worst_pair

    def test_tied_residuals_report_the_first_pair(self):
        check = decompositions_compatible(pauli_decomposition("z"), pauli_decomposition("x"))
        assert check.worst_pair == ("+z", "+x")
        check = decompositions_compatible(pauli_decomposition("z"), pauli_decomposition("z"))
        assert check.max_residual == 0.0 and check.worst_pair is None

    @given(decomposition_pairs())
    @settings(max_examples=120, deadline=None)
    def test_refine(self, pair):
        a, b = pair
        if not reference_compatible(a, b).compatible:
            with pytest.raises(IncompatibleFrameworksError):
                refine(a, b)
            return
        projectors, labels = reference_products(a, b)
        expected_error = reference_decomposition_error(projectors, labels)
        if expected_error is not None:
            with pytest.raises(expected_error[0]):
                refine(a, b)
            return
        refined = refine(a, b)
        assert refined.labels == tuple(labels)
        assert np.array_equal(refined.projectors, np.stack(projectors))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.sampled_from(["generic", "repeated", "basis"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_information_preserved(self, seed, d, kind):
        family = random_family(np.random.default_rng(seed), d, 3, kind)
        for record, later in itertools.combinations(family.grid.slot_times, 2):
            got = information_preserved(family, record, later)
            assert got == reference_information_preserved(family, record, later)

    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(PERTURBATIONS), max_size=3))
    @settings(max_examples=150, deadline=None)
    @example(seed=1, perturbations=[])
    @example(seed=1, perturbations=["nan"])
    @example(seed=2, perturbations=["truncate"])
    def test_make_decomposition_errors(self, seed, perturbations):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        base = (random_decomposition if rng.random() < 0.5 else coordinate_decomposition)(rng, d)
        mats = [np.array(p) for p in base.projectors]
        labels = list(base.labels)
        for kind in perturbations:
            _perturb(rng, mats, labels, kind)
        got = _outcome(mats, labels)
        if len({m.shape for m in mats}) == 1:
            # the same input as one (n, d, d) array gives the same result
            stack = np.array(mats)
            assert _outcome(stack, labels) == got
        expected = reference_decomposition_error(mats, labels)
        if expected is None:
            assert got[0] == tuple(labels)
            # the decomposition is a copy: later writes to the input miss it
            decomp = make_decomposition(stack, labels)
            stack[...] = 7.0
            assert decomp.projectors.tobytes() == got[1]
            return
        cls, indices = expected
        assert got[0] is cls
        named = re.search(NAMED_INDICES[cls], got[1])
        assert named is not None and tuple(int(g) for g in named.groups()) == indices


def _named(error) -> tuple[type, tuple[int, ...]]:
    """An error's type and the indices its message names."""
    named = re.search(NAMED_INDICES[type(error)], str(error))
    assert named is not None
    return type(error), tuple(int(g) for g in named.groups())


class TestStackedValidation:
    """``_validated`` on several slots in turn against ``make_decomposition``
    on each in turn."""

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.lists(st.sampled_from(PERTURBATIONS), max_size=2), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    @example(seed=3, perturbations=[[], ["halve"], ["duplicate"]])
    @example(seed=4, perturbations=[["drop"], ["rotate"]])
    @example(seed=5, perturbations=[[], ["reshape"], ["nan", "truncate"]])
    def test_same_decompositions_and_first_error(self, seed, perturbations):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        inputs = []
        for kinds in perturbations:
            base = (random_decomposition if rng.random() < 0.5 else coordinate_decomposition)(rng, d)
            mats, labels = [np.array(p) for p in base.projectors], list(base.labels)
            for kind in kinds:
                _perturb(rng, mats, labels, kind)
            inputs.append((mats, labels))

        # one make_decomposition call per input, up to the first error
        expected_decomps, expected_error = [], None
        for mats, labels in inputs:
            got = _outcome(mats, labels)
            if isinstance(got[0], type):
                expected_error = got
                break
            expected_decomps.append(got)

        # each input converted and validated in turn, up to the first error
        decomps, error = [], None
        for mats, labels in inputs:
            try:
                decomps.append(_validated(_stacked(mats), labels, DEFAULT_TOL))
            except (QHistError, ValueError) as exc:
                error = exc
                break
        assert [(dec.labels, dec.projectors.tobytes()) for dec in decomps] == expected_decomps
        assert (None if error is None else (type(error), str(error))) == expected_error
        assert all(not dec.projectors.flags.writeable for dec in decomps)

        # the first faulty input, against the per-pair reference
        if error is not None:
            mats, labels = inputs[len(decomps)]
            assert _named(error) == reference_decomposition_error(mats, labels)

    def test_completeness_residual_is_that_of_sum_axis_0(self):
        """At a ``proj`` tolerance equal to the largest completeness residual,
        computed as ``stack.sum(axis=0)`` adds, every stack passes; one ulp
        below it, that stack fails.  An adding order that differs in the last
        bit fails one of the two."""
        used = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            stacks = [random_decomposition(rng, 8, n_blocks=8).projectors.copy() for _ in range(3)]
            residuals = [max_abs(s.sum(axis=0) - identity(8)) for s in stacks]
            k = int(np.argmax(residuals))
            others = max(
                max(max_abs(p @ p - p), max((max_abs(p @ q) for q in s[i + 1 :]), default=0.0))
                for s in stacks
                for i, p in enumerate(s)
            )
            if others >= residuals[k]:
                continue
            used += 1
            labels = [f"b{i}" for i in range(8)]
            edge = Tolerance(herm=1e-3, proj=residuals[k])
            for s in stacks:
                _validated(s.copy(), labels, edge)
            below = Tolerance(herm=1e-3, proj=float(np.nextafter(residuals[k], 0.0)))
            for s in stacks[:k]:
                _validated(s.copy(), labels, below)
            with pytest.raises(NotCompleteError):
                _validated(stacks[k].copy(), labels, below)
        assert used >= 5

    def test_each_decomposition_holds_its_slots_stack_read_only(self):
        for stack, labels in [(I2[None].copy(), ["any"]), (np.stack([P_UP, P_DOWN]), ["up", "down"])]:
            decomp = _validated(stack, labels, DEFAULT_TOL)
            assert decomp.projectors is stack and not stack.flags.writeable


def _theta_basis(theta: float):
    v, w = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
    return make_decomposition([np.outer(v, v), np.outer(w, w)], ["v", "w"])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: make_decomposition([I2, I2], ["a", "b"]), NotOrthogonalError,
         "projectors 0 and 1 are not orthogonal (|PiPj|_max = 1.000e+00)"),
        # bases 1e-4 apart commute within comm=1e-3, yet their products are not Hermitian
        (lambda: refine(pauli_decomposition("z"), _theta_basis(1e-4), Tolerance(comm=1e-3)), NotAProjectorError,
         "element 0 ('+z∧v') is not a projector"),
        # two copies of P_UP are padded with the rest 1 - 2 P_UP, which is no projector
        (lambda: build_family(P_UP[0], ["t0", "t1"], [I2], [[("a", P_UP), ("b", P_UP)]]), BadDecompositionError,
         "slot is not a valid decomposition: element 2 ('rest') is not a projector"),
        (lambda: make_decomposition([np.diag([np.nan, 1.0])], ["a"]), ValueError, "matrix entries must be finite"),
        (lambda: make_decomposition([], []), NotCompleteError, "a decomposition needs at least one projector"),
        (lambda: make_decomposition([I2], ["a", "b"]), DuplicateLabelError, "1 projectors but 2 labels"),
        (lambda: make_decomposition([P_UP, P_DOWN], ["a", "a"]), DuplicateLabelError,
         "label 'a' at index 1 repeats index 0"),
        (lambda: make_decomposition([I2, np.eye(3)], ["a", "b"]), DimMismatchError,
         "projector 1 has shape (3, 3), expected (2, 2)"),
        (lambda: make_decomposition([P_UP], ["up"]), NotCompleteError,
         "projectors do not sum to identity (residual 1.000e+00)"),
        # under tolerance 0 sigma_x's eigenprojectors, from eigh, are not exactly idempotent
        (lambda: build_family(P_UP[0], ["t0", "t1"], [I2], [SIGMA_X.copy()], Tolerance.uniform(0.0)),
         NotAProjectorError, "element 0 ('ev0=-1') is not a projector"),
    ],
    ids=["make_decomposition", "refine", "build_family_list_slot", "non_finite", "no_element", "label_count",
         "repeated_label", "misfit", "incomplete", "eigenprojectors"],
)
def test_a_caught_validation_error_leaves_no_cyclic_garbage(call, error, message):
    def caught():
        with pytest.raises((QHistError, ValueError)) as info:
            call()
        found = type(info.value), str(info.value)
        del info  # it holds the traceback, which holds this frame
        return found

    gc.disable()
    try:
        gc.collect()
        assert caught() == (error, message)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _rank_one_stack(n: int, faulty: list[tuple[int, int]]) -> np.ndarray:
    """The n coordinate projectors of dimension n, but for each faulty pair
    (i, j) element j projects onto (e_j + e_i) / sqrt(2), which overlaps e_i
    alone; the pairs share no index."""
    vectors = np.eye(n, dtype=complex)
    for i, j in faulty:
        vectors[j] = (vectors[j] + vectors[i]) / np.sqrt(2)
    return np.einsum("ki,kj->kij", vectors, vectors.conj())


class TestCheckOrthogonal:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_the_first_faulty_pair_is_named_past_block_boundaries(self, n):
        # rows are searched in blocks of n // 2 elements: at n = 6, (0, 4) is
        # in row 0's second block and still comes before (1, 2)
        pairs = list(itertools.combinations(range(n), 2))
        cases = [[p] for p in pairs] + [[p, q] for p, q in itertools.permutations(pairs, 2) if not set(p) & set(q)]
        if n == 6:
            assert [(1, 2), (0, 4)] in cases
        for faulty in cases:
            stack = _rank_one_stack(n, faulty)
            with pytest.raises(NotOrthogonalError) as info:
                _check_orthogonal(stack, DEFAULT_TOL)
            i, j = min(faulty)
            assert _named(info.value) == (NotOrthogonalError, (i, j))
            assert _named(info.value) == reference_decomposition_error(list(stack), [f"p{k}" for k in range(n)])
            assert str(info.value).endswith(f"(|PiPj|_max = {max_abs(stack[i] @ stack[j]):.3e})")
        assert _check_orthogonal(_rank_one_stack(n, []), DEFAULT_TOL) is None


class TestMemory:
    """No step forms all n x m products at once: with n = 32 rank-one
    projectors at d = 32, an (n, n, d, d) complex array alone is 16 MiB."""

    LIMIT = 8 * 2**20

    def _peak(self, fn) -> int:
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - start

    def test_rank_one_decomposition(self, rng):
        a = random_decomposition(rng, 32, n_blocks=32)
        mats, labels = list(a.projectors), list(a.labels)
        assert len(a) == 32
        assert self._peak(lambda: make_decomposition(mats, labels)) < self.LIMIT
        assert self._peak(lambda: refine(a, a)) < self.LIMIT

    @pytest.mark.parametrize("d, n", [(32, 32), (16, 4)], ids=["32x32", "4_at_16"])
    def test_orthogonality_check_stays_within_its_stacks(self, rng, d, n):
        stack = random_decomposition(rng, d, n_blocks=n).projectors
        assert stack.shape == (n, d, d)
        assert _check_orthogonal(stack, DEFAULT_TOL) is None
        assert self._peak(lambda: _check_orthogonal(stack, DEFAULT_TOL)) <= stack.nbytes
