"""Every integer input rule of the package lives in numtheory, and holds everywhere.

Three rules stand behind the CRT relabeling: a label lies in [0, n)
(numtheory._labels), a divisor d of M leaves the cofactor M // d
(numtheory._cofactor), and q = q1*N1*L1 + q2*N2*L2 mod M (numtheory.crt_compose).
The guard reads every module of the package and allows a copy of each rule only
where the allow-list names it: the range message or a chained comparison
0 <= x < n, the divisor message, and a product of N1 with L1 (or N2 with L2).
The suite's CRT delta identity and split invariants state the products on
purpose, as the claims they check. The entry points then refuse a float, a
numpy float or a bool with ValueError wherever they take a label or a divisor,
and accept numpy integers.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import phasecrt
from phasecrt.core import clock, momentum_state, position_state, translate
from phasecrt.lattice import VNLattice
from phasecrt.numtheory import crt_compose, crt_decompose, make_split
from phasecrt.reps import build_C2, build_E_mom, build_E_pos, build_pls, factor_kernel

PACKAGE = Path(phasecrt.__file__).resolve().parent

ALLOWED = {
    "range": {("numtheory.py", "_labels")},
    "divisor": {("numtheory.py", "_cofactor")},
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
    if not 0 <= q < M:
        raise ValueError(f"q={q} out of range [0, {M})")
    if M % d:
        raise ValueError(f"{d} does not divide {M}")
    return (q * split.N1 * split.L1 + q * split.N2 * split.L2) % split.M

class Lattice:
    def row(self, q2):
        return q2 * N2 * L2
"""
    assert rule_sites(ast.parse(source)) == [
        ("range", "check"), ("range", "check"), ("divisor", "check"), ("crt", "check"),
        ("crt", "check"), ("crt", "Lattice.row")]


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
    ("build_E_pos", lambda x: build_E_pos(15, x), 3),
    ("build_E_mom", lambda x: build_E_mom(15, x), 3),
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
    want, got = call(good), call(np.int64(good))
    if hasattr(want, "amplitudes"):  # a state
        want, got = want.amplitudes, got.amplitudes
    if hasattr(want, "as_matrix"):  # a basis
        want, got = want.as_matrix(), got.as_matrix()
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


@pytest.mark.parametrize("labels", [np.array([1.0]), np.array([True])],
                         ids=["float-array", "bool-array"])
def test_label_arrays_of_another_dtype_are_refused(labels):
    for call in (lambda x: crt_compose(SPLIT, x, 0), lambda x: crt_decompose(SPLIT, x),
                 lambda x: factor_kernel(SPLIT, x, 0)):
        with pytest.raises(ValueError, match="must be integers"):
            call(labels)
