"""Pauli-string algebra against the independent dense Kronecker oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syklab.pauli import (
    DimensionError,
    PauliString,
    commutes,
    is_hermitian,
    multiply,
    to_dense,
)

from conftest import dense_oracle, random_pauli


def pauli_strategy(num_qubits: int):
    full = (1 << num_qubits) - 1
    return st.builds(
        PauliString,
        st.just(num_qubits),
        st.integers(0, full),
        st.integers(0, full),
        st.integers(0, 3),
    )


class TestConstruction:
    def test_rejects_no_qubits(self):
        with pytest.raises(ValueError, match="num_qubits must be positive"):
            PauliString(0, 0, 0)

    @pytest.mark.parametrize("x,z", [(0b100, 0), (0, 0b100), (-1, 0)])
    def test_rejects_masks_past_num_qubits(self, x, z):
        with pytest.raises(ValueError, match="mask does not fit in num_qubits bits"):
            PauliString(2, x, z)

    def test_labels(self):
        assert PauliString(1, 1, 0).label() == "X"
        assert PauliString(1, 1, 1, 1).label() == "Y"  # Y = i X Z
        assert PauliString(2, 0, 0b10, 2).label() == "(-) IZ"
        # (Z_1 X_2)(X_1 Y_3) = (Z_1 X_1) X_2 Y_3 = (i Y_1) X_2 Y_3
        prod = multiply(PauliString(3, 0b010, 0b001), PauliString(3, 0b101, 0b100, 1))
        assert prod.label() == "(i) YXY"
        assert multiply(PauliString(1, 1, 0), PauliString(1, 0, 1)).label() == "(-i) Y"


class TestMultiply:
    def test_involution(self):
        x1 = PauliString(3, 0b001, 0)  # X on qubit 1
        prod = multiply(x1, x1)
        assert (prod.x_mask, prod.z_mask, prod.phase_exp) == (0, 0, 0)

    def test_x_times_z_is_minus_i_y(self):
        x1 = PauliString(1, 1, 0)
        z1 = PauliString(1, 0, 1)
        prod = multiply(x1, z1)
        # dense oracle: XZ = -i Y
        y = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(dense_oracle(prod), -1j * y)

    def test_two_qubit_phase_against_dense(self):
        a = PauliString(2, 0b01, 0b10)  # X1 Z2
        b = PauliString(2, 0b10, 0b01)  # Z1 X2
        prod = multiply(a, b)
        assert np.allclose(dense_oracle(prod), dense_oracle(a) @ dense_oracle(b))
        # result is Y1 Y2 up to phase
        assert prod.x_mask == 0b11 and prod.z_mask == 0b11

    @given(pauli_strategy(4), pauli_strategy(4))
    @settings(max_examples=150, deadline=None)
    def test_multiply_matches_dense(self, a, b):
        assert np.allclose(
            dense_oracle(multiply(a, b)), dense_oracle(a) @ dense_oracle(b)
        )

    @given(pauli_strategy(5), pauli_strategy(5), pauli_strategy(5))
    @settings(max_examples=150, deadline=None)
    def test_associativity_exact(self, a, b, c):
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert left == right

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(PauliString(2, 0, 0), PauliString(3, 0, 0))


class TestCommutes:
    def test_self_commutes(self):
        p = PauliString(3, 0b101, 0b011, 2)
        assert commutes(p, p)

    def test_x_z_anticommute(self):
        assert not commutes(PauliString(1, 1, 0), PauliString(1, 0, 1))

    def test_exhaustive_two_qubits_against_dense(self):
        paulis = [
            PauliString(2, x, z) for x in range(4) for z in range(4)
        ]
        for a in paulis:
            for b in paulis:
                da, db = dense_oracle(a), dense_oracle(b)
                dense_commutes = np.allclose(da @ db - db @ da, 0)
                assert commutes(a, b) == dense_commutes

    def test_exhaustive_four_qubits_batched(self):
        # all 256 x 256 mask pairs, dense commutators evaluated in a batch
        masks = [(x, z) for x in range(16) for z in range(16)]
        mats = np.stack([dense_oracle(PauliString(4, x, z)) for x, z in masks])
        sym = np.zeros((len(masks), len(masks)), dtype=bool)
        for i, (x, z) in enumerate(masks):
            a = PauliString(4, x, z)
            sym[i] = [commutes(a, PauliString(4, x2, z2)) for x2, z2 in masks]
        for i in range(len(masks)):
            comm = mats[i] @ mats - mats @ mats[i]
            dense = np.abs(comm).sum(axis=(1, 2)) < 1e-12
            assert np.array_equal(sym[i], dense)

    def test_random_eight_qubits(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = random_pauli(rng, 8)
            b = random_pauli(rng, 8)
            da, db = dense_oracle(a), dense_oracle(b)
            assert commutes(a, b) == np.allclose(da @ db, db @ da)

    def test_phase_never_matters(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = random_pauli(rng, 4)
            b = random_pauli(rng, 4)
            a0 = PauliString(4, a.x_mask, a.z_mask, 0)
            assert commutes(a, b) == commutes(a0, b)


class TestDense:
    def test_to_dense_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_pauli(rng, 3)
            assert np.allclose(to_dense(p), dense_oracle(p))

    def test_unitary(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_pauli(rng, 3)
            mat = to_dense(p)
            assert np.allclose(mat @ mat.conj().T, np.eye(8))

    def test_hermitian_squares_to_identity(self):
        rng = np.random.default_rng(9)
        found = 0
        while found < 20:
            p = random_pauli(rng, 3)
            if not is_hermitian(p):
                continue
            found += 1
            mat = to_dense(p)
            assert np.allclose(mat, mat.conj().T)
            assert np.allclose(mat @ mat, np.eye(8))
