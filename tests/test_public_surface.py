"""Every name phasecrt exports has a caller in the package itself.

A name counts as used when a module of src/phasecrt other than __init__
reads it (a bare name or an attribute); its own definition does not count.
The few exports that only tests, the acceptance criteria or the user call are
listed below, each with its reason.
"""

import ast
from pathlib import Path

import phasecrt

PACKAGE = Path(phasecrt.__file__).resolve().parent

# exports with no caller in the package, and why each stays
UNCALLED = {
    # targets of per-layer benchmark metrics and oracles of the tests
    "apply": "per-layer metric core.apply; test oracle",
    "support": "per-layer metric lattice.support; test oracle",
    "overlap_matrix": "per-layer metric reps.overlap_matrix; test oracle",
    "fourier_matrix": "per-layer metric core.fourier_matrix; test oracle",
    # the acceptance criteria state the paper's claims through these
    "position_state": "acceptance criteria",
    "momentum_state": "acceptance criteria",
    # writes the state files that `phasecrt classify` reads
    "save_state": "writes the files that phasecrt classify reads",
}


def exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def read_in_package():
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_or_a_reason():
    uncalled = exported() - read_in_package()
    assert uncalled == set(UNCALLED)
