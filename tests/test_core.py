"""Hilbert-space indexing, Dicke states, operators."""

import numpy as np
import pytest

from dickesim import ResourceGuardError, StateVector, build_space, embed, make_dicke
from dickesim.core import dicke_spin_words


def internal_parity_matrix(space):
    """(-1)^(number of up ions), built by direct basis enumeration."""
    diag = [(-1.0) ** space.basis_state(i).n_up for i in range(space.dim)]
    return np.diag(diag)


def expectation(op, psi):
    return complex(np.vdot(psi.amplitudes, op @ psi.amplitudes)).real


class TestBuildSpace:
    @pytest.mark.parametrize("n_qubits,n_max,dim", [(2, 5, 24), (1, 0, 2), (3, 2, 24)])
    def test_dimensions(self, n_qubits, n_max, dim):
        assert build_space(n_qubits, n_max).dim == dim

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            build_space(10, 10)
        # a custom cap is honored
        build_space(10, 10, dim_cap=2**14)

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
            b = space.basis_state(i)
            assert space.index(b.spins, b.fock_n) == i
            seen.add((b.spins, b.fock_n))
        assert len(seen) == space.dim

    def test_ordering_convention(self):
        # spin-major, big-endian spin word, fock ascending fastest
        space = build_space(2, 5)
        assert space.index("dd", 0) == 0
        assert space.index("dd", 5) == 5
        assert space.index("du", 0) == 6
        assert space.index("ud", 0) == 12
        assert space.index("uu", 5) == 23

    def test_arrow_aliases(self):
        space = build_space(2, 5)
        assert space.index("↓↑", 3) == space.index("du", 3)


class TestMakeDicke:
    def test_two_ion_single_excitation(self):
        # the equal positive superposition of du and ud
        d = make_dicke(2, 1)
        assert d.population("du", 0) == pytest.approx(0.5, abs=1e-12)
        assert d.population("ud", 0) == pytest.approx(0.5, abs=1e-12)
        amp = d.amplitudes[d.space.index("du", 0)]
        assert amp.real == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert amp.imag == 0.0

    def test_all_down(self):
        d = make_dicke(3, 0)
        assert d.population("ddd", 0) == pytest.approx(1.0, abs=1e-12)

    def test_four_ion_two_excitations_brute_force(self):
        # oracle: enumerate every 4-ion spin word and keep those with 2 ups
        words = [format(s, "04b").replace("0", "d").replace("1", "u") for s in range(16)]
        expected = sorted(w for w in words if w.count("u") == 2)
        assert len(expected) == 6
        assert dicke_spin_words(4, 2) == expected
        d = make_dicke(4, 2)
        for w in expected:
            amp = d.amplitudes[d.space.index(w, 0)]
            assert amp == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert d.norm_sq == pytest.approx(1.0, abs=1e-12)

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
                assert abs(si.overlap(sj)) == pytest.approx(expected, abs=1e-12)


class TestEmbed:
    def test_basis_ket(self):
        space = build_space(2, 5)
        psi = embed(space, "dd", 1)
        assert psi.population("dd", 1) == 1.0
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
        assert expectation(space.fock_number, embed(space, "dd", 1)) == pytest.approx(1.0)

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
        scratch = StateVector(space, np.array([1.0, 1.0]), unnormalized=True)
        assert scratch.norm_sq == pytest.approx(2.0)

    def test_operator_builders_are_hermitian(self):
        space = build_space(2, 3)
        for mat in (space.fock_number, space.atom_number, space.sigma_x(0),
                    space.sigma_x(1)):
            assert np.allclose(mat, mat.conj().T, atol=1e-14)

    def test_annihilation_action(self):
        space = build_space(1, 3)
        psi = embed(space, "d", 2)
        lowered = space.annihilation @ psi.amplitudes
        assert lowered[space.index("d", 1)] == pytest.approx(np.sqrt(2))
