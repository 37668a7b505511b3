"""Shared test helpers: an independent dense-matrix oracle for Pauli strings
(built by Kronecker products, deliberately not reusing the library's
signed-permutation path), a D x D Hamiltonian summed from ``to_dense`` term
matrices, and the acceptance-criteria reporting hook."""

from __future__ import annotations

import numpy as np
import pytest

from syklab.fermions import hilbert_dim, term_operator
from syklab.model import SykInstance, ordering_map
from syklab.pauli import PauliString, to_dense

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_oracle(p: PauliString) -> np.ndarray:
    """Dense matrix of i**phase_exp * X**x_mask * Z**z_mask via np.kron.

    Qubit 1 is the least-significant index bit, so it sits rightmost in the
    Kronecker chain.
    """
    mat = np.array([[1.0 + 0.0j]])
    for j in reversed(range(p.num_qubits)):
        factor = I2
        if (p.x_mask >> j) & 1:
            factor = X2
        if (p.z_mask >> j) & 1:
            factor = factor @ Z2
        mat = np.kron(mat, factor)
    return (1j**p.phase_exp) * mat


def dense_hamiltonian(instance: SykInstance) -> np.ndarray:
    """The D x D H = sum_g J_g K_g of an instance, each K_g from
    ``pauli.to_dense``: a reference built without the term table or
    ``linalg.assemble``."""
    dim = hilbert_dim(instance.n)
    ham = np.zeros((dim, dim), dtype=complex)
    for coupling, edge in zip(instance.couplings, ordering_map(instance.n, instance.k)):
        ham += coupling * to_dense(term_operator(edge, instance.n))
    return ham


def random_pauli(rng: np.random.Generator, num_qubits: int) -> PauliString:
    full = (1 << num_qubits) - 1
    return PauliString(
        num_qubits,
        int(rng.integers(0, full + 1)),
        int(rng.integers(0, full + 1)),
        int(rng.integers(0, 4)),
    )


# --- acceptance-criteria report -------------------------------------------

_CRITERIA: list[tuple[int, str, bool, str]] = []


@pytest.fixture(scope="session")
def criterion_report():
    def record(number: int, description: str, passed: bool, detail: str = ""):
        _CRITERIA.append((number, description, passed, detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(_CRITERIA):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} [{status}] {description}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
