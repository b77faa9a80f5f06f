"""Every integer input rule of the package lives in numtheory, and holds everywhere.

Five rules stand behind the CRT relabeling: a dimension is an integer M >= 2
(numtheory._dimension), a label lies in [0, n) (numtheory._labels), a divisor d
of M leaves the cofactor M // d (numtheory._cofactor), a split (M, M1) is neither
trivial nor of factors that share a prime (CoprimeSplit), and
q = q1*N1*L1 + q2*N2*L2 mod M (numtheory.crt_compose). The guard reads every
module of the package and allows a copy of each rule only where the allow-list
names it: a comparison x < 2 (or x >= 2), the range message or a chained
comparison 0 <= x < n, the divisor message, a TrivialSplitError or
NonCoprimeError made (build_basis re-raises the latter with its basis kind), and
a product of N1 with L1 (or N2 with L2). The suite's CRT delta identity and split
invariants state the products on purpose, as the claims they check. The entry
points then refuse a float, a numpy float or a bool with ValueError wherever they
take a dimension, a label or a divisor, refuse a dimension below 2 and an array
where they take one label, and accept numpy integers of any width, signed or not:
the rules hand on a numpy integer as its int and integer labels as int64, so no
later product wraps in a narrow dtype.
"""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import phasecrt
from phasecrt.core import (MonomialOperator, clock, default_tolerance, fourier_matrix,
                           momentum_state, norm_tolerance, omega_power, operator_order,
                           phase_exponent, position_state, translate)
from phasecrt.lattice import VNLattice, default_support_threshold
from phasecrt.numtheory import (CoprimeSplit, chi, crt_compose, crt_decompose, enumerate_splits,
                                factorize, make_split, mod_inverse)
from phasecrt.reps import (BasisKind, RepBasis, build_basis, build_C2, build_E_mom, build_E_pos,
                           build_pls, factor_kernel)
from phasecrt.suite import reports_to_dict, run_suite

PACKAGE = Path(phasecrt.__file__).resolve().parent

ALLOWED = {
    "dimension": {("numtheory.py", "_dimension")},
    "range": {("numtheory.py", "_labels")},
    "divisor": {("numtheory.py", "_cofactor")},
    "split": {("numtheory.py", "CoprimeSplit.__post_init__"), ("reps.py", "build_basis")},
    "crt": {("numtheory.py", "crt_compose"), ("suite.py", "_check_crt"),
            ("suite.py", "_check_split_invariants")},
}


def _names(node):
    """The names multiplied together in the product chain at node."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _names(node.left) | _names(node.right)
    if isinstance(node, ast.Name):
        return {node.id}
    return {node.attr} if isinstance(node, ast.Attribute) else set()


def rule_sites(tree):
    """(rule, qualified name of the enclosing function or class) for each copy of a rule."""
    found = []

    def visit(node, scope, in_product):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "out of range [0," in node.value:
                found.append(("range", scope))
            if "does not divide" in node.value:
                found.append(("divisor", scope))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("TrivialSplitError", "NonCoprimeError")):
            found.append(("split", scope))
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.GtE)) and isinstance(right, ast.Constant)
                and right.value == 2 for op, right in zip(node.ops, node.comparators)):
            found.append(("dimension", scope))
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                and node.left.value == 0 and [type(op) for op in node.ops] == [ast.LtE, ast.Lt]):
            found.append(("range", scope))
        product = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        if product and not in_product:  # the whole chain, once
            names = _names(node)
            if {"N1", "L1"} <= names or {"N2", "L2"} <= names:
                found.append(("crt", scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, product)

    visit(tree, "", False)
    return found


def test_each_integer_rule_has_one_home():
    sites = {(rule, path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
             for rule, scope in rule_sites(ast.parse(path.read_text()))}
    assert {rule: {(name, scope) for r, name, scope in sites if r == rule}
            for rule in ALLOWED} == ALLOWED


def test_the_guard_sees_a_copy_of_each_rule():
    source = """
def check(q, split, d, M):
    if M < 2:
        raise ValueError(f"need M >= 2, got {M}")
    if not 0 <= q < M:
        raise ValueError(f"q={q} out of range [0, {M})")
    if M % d:
        raise ValueError(f"{d} does not divide {M}")
    if math.gcd(d, M // d) != 1:
        raise NonCoprimeError(f"{d} and {M // d} share a prime")
    return (q * split.N1 * split.L1 + q * split.N2 * split.L2) % split.M

class Lattice:
    def row(self, q2):
        return q2 * N2 * L2
"""
    assert rule_sites(ast.parse(source)) == [
        ("dimension", "check"), ("range", "check"), ("range", "check"), ("divisor", "check"),
        ("split", "check"), ("crt", "check"), ("crt", "check"), ("crt", "Lattice.row")]


SPLIT = make_split(15, 3)

# (entry point, a call of it on one label or divisor x, a valid x)
ENTRY_POINTS = [
    ("crt_compose", lambda x: crt_compose(SPLIT, x, 2), 1),
    ("crt_decompose", lambda x: crt_decompose(SPLIT, x), 1),
    ("factor_kernel", lambda x: factor_kernel(SPLIT, x, 0), 1),
    ("VNLattice", lambda x: VNLattice(SPLIT, x, 0), 1),
    ("build_pls", lambda x: build_pls(SPLIT, x, 0), 1),
    ("RepBasis.vector", lambda x: build_C2(SPLIT).vector(x, 0), 1),
    ("position_state", lambda x: position_state(15, x), 1),
    ("momentum_state", lambda x: momentum_state(15, x), 1),
    ("translate", lambda x: translate(15, x), 1),
    ("clock", lambda x: clock(15, x), 3),
    ("make_split", lambda x: make_split(15, x), 3),
    ("CoprimeSplit", lambda x: CoprimeSplit(15, x), 3),
    ("build_E_pos", lambda x: build_E_pos(15, x), 3),
    ("build_E_mom", lambda x: build_E_mom(15, x), 3),
    ("mod_inverse", lambda x: mod_inverse(x, 5), 2),
]


@pytest.mark.parametrize("bad", [1.5, 1.0, np.float64(1.0), True],
                         ids=["float", "whole-float", "np-float", "bool"])
@pytest.mark.parametrize("call", [call for _, call, _ in ENTRY_POINTS],
                         ids=[name for name, _, _ in ENTRY_POINTS])
def test_a_non_integer_label_or_divisor_is_refused(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("call, good", [(call, good) for _, call, good in ENTRY_POINTS],
                         ids=[name for name, _, _ in ENTRY_POINTS])
def test_a_numpy_integer_is_accepted_as_its_int(call, good):
    assert_same(call(np.int64(good)), call(good))


# numpy's other integer widths, signed and unsigned; every value these tests give them fits
NARROW_INTEGERS = [np.int8, np.int16, np.uint8, np.uint16, np.uint64]
NUMPY_INTEGERS = [np.int64, *NARROW_INTEGERS]


@pytest.mark.parametrize("dtype", NARROW_INTEGERS, ids=lambda t: t.__name__)
@pytest.mark.parametrize("call, good", [(call, good) for _, call, good in ENTRY_POINTS],
                         ids=[name for name, _, _ in ENTRY_POINTS])
def test_a_numpy_integer_of_any_width_is_accepted_as_its_int(call, good, dtype):
    assert_same(call(dtype(good)), call(good))


EPOS_400 = build_E_pos(400, 20).as_matrix().T.reshape(20, 20, 400)

# (call, a call of it on labels or divisors of one integer type t) whose arithmetic leaves
# a narrow dtype: 13 * N1 * L1 at 14x15, -q1 * k1 * N1, 210 % 2, n * shift, 20 * 20, and
# a lattice's shifts, which its readers subtract
NARROW_PRODUCTS = [
    ("crt_compose", lambda t: crt_compose(make_split(210, 14), t(13), t(14))),
    ("factor_kernel", lambda t: factor_kernel(SPLIT, t(1), t(2))),
    ("clock", lambda t: clock(210, t(2))),
    ("operator_order", lambda t: operator_order(translate(210, t(1)))),
    ("MonomialOperator.power", lambda t: MonomialOperator(210, t(100), t(3), t(5)).power(3)),
    ("RepBasis", lambda t: RepBasis(BasisKind.E_POS, t(20), t(20), EPOS_400)),
    ("VNLattice", lambda t: VNLattice(SPLIT, t(1), t(2))),
]


@pytest.mark.parametrize("dtype", NUMPY_INTEGERS, ids=lambda t: t.__name__)
@pytest.mark.parametrize("call", [call for _, call in NARROW_PRODUCTS],
                         ids=[name for name, _ in NARROW_PRODUCTS])
def test_a_numpy_integer_of_any_width_gives_the_int_result(call, dtype):
    got, want = call(dtype), call(int)
    assert_same(got, want)
    fields = {MonomialOperator: ("dim", "shift", "phase_slope", "phase_offset"),
              RepBasis: ("M1", "M2"), VNLattice: ("shift_q", "shift_k")}.get(type(want))
    if fields:  # it holds ints, as from ints
        assert {type(getattr(got, name)) for name in fields} == {int}


@pytest.mark.parametrize("dtype", NUMPY_INTEGERS, ids=lambda t: t.__name__)
def test_label_arrays_of_any_integer_dtype_give_the_int64_results(dtype):
    split = make_split(210, 14)
    q1, q2 = np.arange(14), np.arange(15)[:, None]
    assert_same(crt_compose(split, q1.astype(dtype), q2.astype(dtype)),
                crt_compose(split, q1, q2))
    q = np.arange(min(210, np.iinfo(dtype).max + 1))
    for got, want in zip(crt_decompose(split, q.astype(dtype)), crt_decompose(split, q)):
        assert got.dtype == np.int64
        assert_same(got, want)
    assert_same(factor_kernel(split, q1.astype(dtype), q1[:, None].astype(dtype)),
                factor_kernel(split, q1, q1[:, None]))


def assert_same(got, want):
    """got equals want: a state's amplitudes, a basis' vectors, a report's body."""
    if hasattr(want, "amplitudes"):  # a state
        want, got = want.amplitudes, got.amplitudes
    if hasattr(want, "as_matrix"):  # a basis
        want, got = want.as_matrix(), got.as_matrix()
    if hasattr(want, "to_dict"):  # a suite report, without its timing
        want, got = ({**r.to_dict(), "duration_seconds": None} for r in (want, got))
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


# the entry points that take one label, each a call of it on the label x
SCALAR_LABELS = [(name, call) for name, call, _ in ENTRY_POINTS
                 if name in ("VNLattice", "build_pls", "RepBasis.vector", "position_state",
                             "momentum_state", "translate")]


@pytest.mark.parametrize("labels", [np.array([1]), np.array(1)], ids=["one-element", "0-d"])
@pytest.mark.parametrize("call", [call for _, call in SCALAR_LABELS],
                         ids=[name for name, _ in SCALAR_LABELS])
def test_an_array_is_refused_where_one_label_is_taken(call, labels):
    with pytest.raises(ValueError, match="must be an integer"):
        call(labels)


# (entry point, a call of it on a dimension x); 15 is a dimension, 15.0 not
DIMENSION_ENTRY_POINTS = [
    ("factorize", factorize),
    ("chi", chi),
    ("enumerate_splits", enumerate_splits),
    ("make_split", lambda x: make_split(x, 3)),
    ("CoprimeSplit", lambda x: CoprimeSplit(x, 3)),
    ("mod_inverse", lambda x: mod_inverse(2, x)),
    ("position_state", lambda x: position_state(x, 1)),
    ("momentum_state", lambda x: momentum_state(x, 1)),
    ("clock", lambda x: clock(x, 3)),
    ("translate", lambda x: translate(x, 1)),
    ("MonomialOperator", lambda x: MonomialOperator(x, 1)),
    ("build_E_pos", lambda x: build_E_pos(x, 3)),
    ("build_E_mom", lambda x: build_E_mom(x, 3)),
    ("build_basis", lambda x: build_basis(BasisKind.C2, x, 3)),
    ("RepBasis", lambda x: RepBasis(BasisKind.E_POS, 1, x, np.eye(15)[None])),
    ("run_suite", run_suite),
    ("fourier_matrix", fourier_matrix),
    ("phase_exponent", lambda x: phase_exponent(1j, x)),
    ("default_tolerance", default_tolerance),
    ("norm_tolerance", norm_tolerance),
    ("default_support_threshold", default_support_threshold),
]


@pytest.mark.parametrize("bad", [15.0, np.float64(15.0), True, 1, 0],
                         ids=["float", "np-float", "bool", "one", "zero"])
@pytest.mark.parametrize("call", [call for _, call in DIMENSION_ENTRY_POINTS],
                         ids=[name for name, _ in DIMENSION_ENTRY_POINTS])
def test_a_dimension_is_an_integer_of_at_least_two(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("call", [call for _, call in DIMENSION_ENTRY_POINTS],
                         ids=[name for name, _ in DIMENSION_ENTRY_POINTS])
def test_a_numpy_integer_dimension_is_accepted_as_its_int(call):
    assert_same(call(np.int64(15)), call(15))


@pytest.mark.parametrize("dtype", NARROW_INTEGERS, ids=lambda t: t.__name__)
@pytest.mark.parametrize("call", [call for _, call in DIMENSION_ENTRY_POINTS],
                         ids=[name for name, _ in DIMENSION_ENTRY_POINTS])
def test_a_numpy_integer_dimension_of_any_width_is_accepted_as_its_int(call, dtype):
    assert_same(call(dtype(15)), call(15))


# omega_power's order may be 1: build_E_pos(M, M) and build_E_mom(M, 1) read 1-point tables
@pytest.mark.parametrize("bad", [15.0, np.float64(15.0), 15.5, True, 0, -15],
                         ids=["float", "np-float", "fraction", "bool", "zero", "negative"])
def test_an_order_is_an_integer_of_at_least_one(bad):
    with pytest.raises(ValueError, match="an order must be an integer >= 1"):
        omega_power(bad, 2)


@pytest.mark.parametrize("dtype", NUMPY_INTEGERS, ids=lambda t: t.__name__)
def test_a_numpy_integer_order_is_read_as_its_int(dtype):
    exponents = np.arange(-20, 20)
    assert_same(omega_power(dtype(15), exponents), omega_power(15, exponents))
    assert omega_power(dtype(1), 7) == omega_power(1, 7) == 1


def test_a_numpy_dimension_gives_a_json_safe_report():
    def body(M):
        doc = reports_to_dict([run_suite(M)])
        for report in doc["reports"]:
            del report["duration_seconds"]
        return json.dumps(doc)

    assert body(np.int64(6)) == body(6)


def test_a_split_of_numpy_integers_holds_ints():
    split = make_split(np.int64(15), np.int64(3))
    assert {type(getattr(split, f.name)) for f in dataclasses.fields(split)} == {int}


@pytest.mark.parametrize("labels", [np.array([1.0]), np.array([True])],
                         ids=["float-array", "bool-array"])
def test_label_arrays_of_another_dtype_are_refused(labels):
    for call in (lambda x: crt_compose(SPLIT, x, 0), lambda x: crt_decompose(SPLIT, x),
                 lambda x: factor_kernel(SPLIT, x, 0)):
        with pytest.raises(ValueError, match="must be integers"):
            call(labels)
