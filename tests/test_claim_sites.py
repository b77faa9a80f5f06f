"""A basis's claim is made and checked in one place; so is a state's DFT.

Every RepBasis is a comb claim. reps._comb_basis checks a claim once, when
the basis is made (class c of C must hold exactly the residue class c mod C
of [0, M)), and the products and eigen relations trust it from then on: two
combs of one side and class count share their classes, and a shift keeps
them when C divides it. Code that assigned RepBasis._comb anywhere else would
skip that check, so this test reads every module of the package and every
test module and allows only RepBasis.__init__ and reps._comb_basis to assign
it. The constructor takes amplitudes only (None is refused) and sets their
one-class claim, all of [0, M), the one residue class mod 1, by construction;
_comb_basis makes its basis without the constructor and sets the claim it
checks.

The claims themselves are made in reps alone: no other module of the package
calls _comb_basis or RepBasis, so the comb format is known to reps only.

A state's verdicts and its conjugate read StateVector._momentum as its DFT
without taking it again, so only StateVector.__init__ (which sets None) and
core._fill_momentum, which takes that DFT, may assign it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import phasecrt
from phasecrt.reps import BasisKind, RepBasis

ROOTS = [Path(phasecrt.__file__).resolve().parent, Path(__file__).resolve().parent]
ALLOWED = {("reps.py", "RepBasis.__init__"), ("reps.py", "_comb_basis")}
MOMENTUM_ALLOWED = {("core.py", "StateVector.__init__"), ("core.py", "_fill_momentum")}


def targets(node):
    """The names and attributes a statement assigns, unpacked."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return [t for elt in node.elts for t in targets(elt)]
    if isinstance(node, ast.Starred):
        return targets(node.value)
    return [node]


def assignments(tree, attr):
    """(qualified name of the enclosing function or class, node) for each assignment
    of .attr, including setattr(..., attr, ...) and del."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        assigned = []
        if isinstance(node, ast.Assign):
            assigned = [t for target in node.targets for t in targets(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            assigned = targets(node.target)
        elif isinstance(node, ast.Delete):
            assigned = [t for target in node.targets for t in targets(target)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == attr):
            found.append((scope, node))
        found.extend((scope, node) for t in assigned
                     if isinstance(t, ast.Attribute) and t.attr == attr)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def assigning_sites(attr, allowed, init):
    """Every (module, scope) assigning .attr; each must be allowed, and init (if named)
    sets None."""
    sites = []
    for root in ROOTS:
        for path in sorted(root.glob("*.py")):
            for scope, node in assignments(ast.parse(path.read_text()), attr):
                sites.append((path.name, scope))
                assert (path.name, scope) in allowed, f"{path.name}:{node.lineno} in {scope}"
                if scope == init:
                    assert isinstance(node, ast.Assign) and ast.literal_eval(node.value) is None
    return sorted(set(sites))


def test_only_the_claim_site_assigns_comb():
    assert assigning_sites("_comb", ALLOWED, None) == sorted(ALLOWED)
    amps = np.zeros((3, 5, 15), dtype=complex)
    side, points, coefficients = RepBasis(BasisKind.C2, 3, 5, amps)._comb
    assert side == "position" and np.array_equal(points, np.arange(15)[None])
    assert coefficients.shape == (1, 15, 15)


@pytest.mark.parametrize("kind", list(BasisKind), ids=lambda kind: kind.value)
def test_a_basis_without_amplitudes_is_refused(kind):
    with pytest.raises(ValueError, match="amplitude block"):
        RepBasis(kind, 3, 5, None)


def calls(tree, names):
    """The line of each call of one of names, by name or as an attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in names]


CLAIM_MAKERS = ("_comb_basis", "RepBasis")


def test_claims_are_made_in_reps_alone():
    outside = {path.name: calls(ast.parse(path.read_text()), CLAIM_MAKERS)
               for path in sorted(ROOTS[0].glob("*.py")) if path.name != "reps.py"}
    assert {name: lines for name, lines in outside.items() if lines} == {}
    assert calls(ast.parse((ROOTS[0] / "reps.py").read_text()), CLAIM_MAKERS)


def test_the_guard_sees_each_form_of_claim():
    source = """
def f(points, coefficients, amps):
    a = _comb_basis(BasisKind.C2, "position", points, coefficients)
    b = reps._comb_basis(BasisKind.C2, "position", points, coefficients)
    c = RepBasis(BasisKind.C2, 3, 5, amps)
    d = reps.RepBasis(BasisKind.C2, 3, 5, amps)
    return RepBasis.__new__(RepBasis), _comb(a), basis_rows(b)
"""
    assert calls(ast.parse(source), CLAIM_MAKERS) == [3, 4, 5, 6]


def test_only_the_dft_sites_assign_momentum():
    assert (assigning_sites("_momentum", MOMENTUM_ALLOWED, "StateVector.__init__")
            == sorted(MOMENTUM_ALLOWED))


def test_the_guard_sees_each_form_of_assignment():
    source = """
def f(basis, good):
    basis._comb = good._comb
    a, basis._comb = 1, None
    setattr(basis, "_comb", None)
    del basis._comb
    basis._comb += ()
    for basis._comb in ():
        pass
"""
    assert [node.lineno for _, node in assignments(ast.parse(source), "_comb")] == [3, 4, 5, 6, 7, 8]
    momentum = source.replace("_comb", "_momentum")
    assert [node.lineno for _, node in assignments(ast.parse(momentum), "_momentum")] \
        == [3, 4, 5, 6, 7, 8]
