"""Every float phase of the package is read from one table of roots.

core.omega_power reads exp(2j*pi*e/M) from the cached table core._roots(M) at
e mod M. A phase computed anywhere else with its own exp can differ from the
table in its last bits, so this test reads every module of the package and
allows a call of exp (numpy's, math's or cmath's, under any import alias)
only in core._roots.
"""

import ast
from pathlib import Path

import phasecrt

PACKAGE = Path(phasecrt.__file__).resolve().parent


def exp_calls(tree):
    """(qualified name of the enclosing function or class, node) for each call of an
    attribute named exp, or of a name bound to exp by an import."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name == "exp"}
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "exp"
                    or isinstance(func, ast.Name) and func.id in aliases):
                found.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_root_table_calls_exp():
    sites = [(path.name, scope, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for scope, node in exp_calls(ast.parse(path.read_text()))]
    assert [(name, scope) for name, scope, _ in sites] == [("core.py", "_roots")], sites


def test_the_guard_sees_each_form_of_exp():
    source = """
import cmath
import math
import numpy as np
from numpy import exp as e

def f(x):
    return np.exp(x), math.exp(x), cmath.exp(x), e(x), np.emath.exp(x)
"""
    assert [node.lineno for _, node in exp_calls(ast.parse(source))] == [8] * 5
