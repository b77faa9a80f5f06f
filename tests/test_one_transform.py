"""Every Fourier transform of the package is core._dft, and it agrees with F.

core fixes the kernel <q|k> = omega_M**(q*k) / sqrt(M) once: core._fourier_entries
forms every entry of F and core._dft takes every transform. A call of numpy's fft
anywhere else would fix a direction of its own, so this test reads every module of
the package and allows a reference to numpy.fft (as an attribute or an import,
under any alias) only in core._dft. The momentum amplitudes of a state, the mixed
matrix of a density matrix and the rows of a momentum comb must match oracles built
on fourier_matrix(M), and a momentum state is a column of it, bit for bit.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import phasecrt
from phasecrt import reps
from phasecrt.core import StateVector, fourier_matrix, momentum_state
from phasecrt.lattice import DensityMatrix, mixed_element_matrix
from phasecrt.numtheory import make_split
from phasecrt.reps import build_C1, build_E_mom

PACKAGE = Path(phasecrt.__file__).resolve().parent


def fft_references(tree):
    """(qualified name of the enclosing function or class, node) for each attribute
    named fft and each import from or of numpy.fft."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                or isinstance(node, ast.ImportFrom) and (
                    (node.module or "").startswith("numpy.fft")
                    or node.module == "numpy" and any(a.name == "fft" for a in node.names))
                or isinstance(node, ast.Import)
                and any(a.name.startswith("numpy.fft") for a in node.names)):
            found.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_one_transform_reads_numpy_fft():
    sites = [(path.name, scope, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for scope, node in fft_references(ast.parse(path.read_text()))]
    assert {(name, scope) for name, scope, _ in sites} == {("core.py", "_dft")}, sites


def test_the_guard_sees_each_form_of_fft():
    source = """
import numpy as np
import numpy.fft
from numpy import fft
from numpy.fft import ifft as f

def g(x):
    return np.fft.ifft(x)
"""
    assert [node.lineno for _, node in fft_references(ast.parse(source))] == [3, 4, 5, 8]


def test_every_transform_matches_the_fourier_matrix():
    M = 15
    F = fourier_matrix(M)  # F[q, k] = <q|k>
    assert F[1, 1] == pytest.approx(np.exp(2j * np.pi / M) / np.sqrt(M))
    rng = np.random.default_rng(15)
    psi = rng.normal(size=M) + 1j * rng.normal(size=M)
    state = StateVector(psi / np.linalg.norm(psi))
    # <k|psi> = sum_q conj(<q|k>) psi[q]
    np.testing.assert_allclose(state.momentum_amplitudes(), F.conj().T @ state.amplitudes,
                               rtol=0, atol=1e-14)
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    np.testing.assert_allclose(mixed_element_matrix(DensityMatrix(rho)), rho @ F,
                               rtol=0, atol=1e-14)
    # a momentum comb's rows: its momentum amplitudes taken to positions through F
    labels = np.arange(M)
    for basis in (build_C1(make_split(M, 3)), build_E_mom(M, 5)):
        momentum = np.zeros((M, M), dtype=np.complex128)
        side, points, coefficients = basis._comb
        C, V, _ = coefficients.shape
        c, v = np.divmod(labels, C)[::-1]  # momentum labels run v*C + c
        momentum[labels[:, None], points[c]] = coefficients[c, v]
        np.testing.assert_allclose(reps._rows(basis, labels), momentum @ F.T,
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("M", [2, 3, 15, 210, 667])
def test_a_momentum_state_is_a_column_of_the_fourier_matrix(M):
    F = fourier_matrix(M)
    for k0 in sorted({0, 1, M // 2, M - 1}):
        assert momentum_state(M, k0).amplitudes.tobytes() == F[:, k0].tobytes(), k0
