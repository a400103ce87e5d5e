"""Hilbert-space indexing, Dicke states, operators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickesim import ResourceGuardError, StateVector, build_space, embed, make_dicke
from dickesim.core import DEFAULT_DIM_CAP, dicke_columns, dicke_vector, spin_bits
from oracles import (annihilation, atom_number, fock_number, overlap, population, sigma_x,
                     symmetric_transform)


def internal_parity_matrix(space):
    """(-1)^(number of up ions), built by direct basis enumeration."""
    diag = [(-1.0) ** space.basis_state(i)[0].count("u") for i in range(space.dim)]
    return np.diag(diag)


def expectation(op, psi):
    return complex(np.vdot(psi.amplitudes, op @ psi.amplitudes)).real


class TestBuildSpace:
    @pytest.mark.parametrize("n_qubits,n_max,dim", [(2, 5, 24), (1, 0, 2), (3, 2, 24)])
    def test_dimensions(self, n_qubits, n_max, dim):
        assert build_space(n_qubits, n_max).dim == dim

    def test_resource_guard(self):
        # the cap admits 4096 states (ten ions at n_max 3) and nothing above
        assert build_space(10, 3).dim == DEFAULT_DIM_CAP
        with pytest.raises(ResourceGuardError, match="cap of 4096"):
            build_space(10, 4)
        with pytest.raises(ResourceGuardError):
            build_space(10, 10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_space(0, 5)
        with pytest.raises(ValueError):
            build_space(2, -1)

    @pytest.mark.parametrize("n_qubits,n_max", [(1, 0), (2, 5), (3, 2), (4, 3)])
    def test_index_bijection(self, n_qubits, n_max):
        space = build_space(n_qubits, n_max)
        seen = set()
        for i in range(space.dim):
            spins, fock_n = space.basis_state(i)
            assert space.index(spins, fock_n) == i
            seen.add((spins, fock_n))
        assert len(seen) == space.dim

    def test_ordering_convention(self):
        # spin-major, big-endian spin word, fock ascending fastest
        space = build_space(2, 5)
        assert space.index("dd", 0) == 0
        assert space.index("dd", 5) == 5
        assert space.index("du", 0) == 6
        assert space.index("ud", 0) == 12
        assert space.index("uu", 5) == 23

    def test_arrow_labels_rejected(self):
        space = build_space(2, 5)
        with pytest.raises(ValueError, match="expected 'd' or 'u'"):
            space.index("↓↑", 3)


class TestMakeDicke:
    def test_two_ion_single_excitation(self):
        # the equal positive superposition of du and ud
        d = make_dicke(2, 1)
        assert population(d, "du", 0) == pytest.approx(0.5, abs=1e-12)
        assert population(d, "ud", 0) == pytest.approx(0.5, abs=1e-12)
        amp = d.amplitudes[d.space.index("du", 0)]
        assert amp.real == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert amp.imag == 0.0

    def test_all_down(self):
        d = make_dicke(3, 0)
        assert population(d, "ddd", 0) == pytest.approx(1.0, abs=1e-12)

    def test_four_ion_two_excitations_brute_force(self):
        # oracle: enumerate every 4-ion spin word and keep those with 2 ups
        words = [format(s, "04b").replace("0", "d").replace("1", "u") for s in range(16)]
        expected = sorted(w for w in words if w.count("u") == 2)
        assert len(expected) == 6
        d = make_dicke(4, 2)
        for w in expected:
            amp = d.amplitudes[d.space.index(w, 0)]
            assert amp == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert d.norm_sq == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    @example((4, 2))
    @example((8, 4))
    def test_any_ion_number_brute_force(self, case):
        n_qubits, m = case
        # oracle: every spin word by its binary spelling, those with m ups kept
        words = [format(s, f"0{n_qubits}b") for s in range(2**n_qubits)]
        expected = np.array([1.0 / math.sqrt(math.comb(n_qubits, m))
                             if w.count("1") == m else 0.0 for w in words])
        d = make_dicke(n_qubits, m)
        assert np.array_equal(d.amplitudes, expected)
        assert np.array_equal(dicke_vector(n_qubits, m), expected)
        # the Dicke column the propagator and the reduced model project onto,
        # and the bright column of the oracle's symmetric basis (first of its
        # up-count block), are the same vector, bit for bit
        assert np.array_equal(dicke_columns(n_qubits)[:, m], expected)
        first = sum(math.comb(n_qubits, k) for k in range(m))
        assert np.array_equal(symmetric_transform(n_qubits)[:, first], expected)
        # the bits spell the spin words the space reads its basis states as
        space = build_space(n_qubits, 0)
        spelled = ["".join("du"[b] for b in row) for row in spin_bits(n_qubits)]
        assert spelled == [space.basis_state(s)[0] for s in range(space.dim)]

    def test_excitation_number_out_of_range(self):
        with pytest.raises(ValueError):
            make_dicke(2, 3)
        with pytest.raises(ValueError):
            make_dicke(2, -1)

    def test_orthonormality_between_sectors(self):
        space = build_space(3, 2)
        states = [make_dicke(3, m, space) for m in range(4)]
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert abs(overlap(si, sj)) == pytest.approx(expected, abs=1e-12)


class TestEmbed:
    def test_basis_ket(self):
        space = build_space(2, 5)
        psi = embed(space, "dd", 1)
        assert population(psi, "dd", 1) == 1.0
        assert psi.norm_sq == pytest.approx(1.0)

    def test_other_ket(self):
        space = build_space(2, 5)
        psi = embed(space, "ud", 0)
        assert psi.amplitudes[space.index("ud", 0)] == 1.0

    def test_truncation_violation(self):
        space = build_space(2, 5)
        with pytest.raises(ValueError):
            embed(space, "dd", 7)


class TestExpectation:
    def test_fock_number(self):
        space = build_space(2, 5)
        assert expectation(fock_number(space), embed(space, "dd", 1)) == pytest.approx(1.0)

    def test_parity_of_basis_state(self):
        space = build_space(2, 5)
        pi_op = internal_parity_matrix(space)
        assert expectation(pi_op, embed(space, "du", 0)) == pytest.approx(-1.0)

    def test_parity_of_dicke(self):
        # expand by hand: both terms have one up ion, parity -1 each
        space = build_space(2, 5)
        pi_op = internal_parity_matrix(space)
        assert expectation(pi_op, make_dicke(2, 1, space)) == pytest.approx(-1.0)


class TestInvariants:
    def test_state_norm_enforced(self):
        space = build_space(1, 0)
        with pytest.raises(ValueError):
            StateVector(space, np.array([1.0, 1.0]))

    def test_operator_builders_are_hermitian(self):
        space = build_space(2, 3)
        for mat in (fock_number(space), atom_number(space), sigma_x(space, 0),
                    sigma_x(space, 1)):
            assert np.allclose(mat, mat.conj().T, atol=1e-14)

    def test_annihilation_action(self):
        space = build_space(1, 3)
        psi = embed(space, "d", 2)
        lowered = annihilation(space) @ psi.amplitudes
        assert lowered[space.index("d", 1)] == pytest.approx(np.sqrt(2))
