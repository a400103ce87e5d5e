"""Density-matrix pipeline, parity algebra, fits, and readout statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import (InternalDensityMatrix, StateVector, build_space,
                      dicke_fidelity, embed, fit_parity, make_dicke, measurement,
                      parity_curve, simulate_histogram, trace_out_motion)
from dickesim.measurement import fidelity_decomposition, parity_closed_form
from oracles import (parity, psi_dicke_fidelity, psi_internal_populations,
                     random_density_matrix, rotate_global, rotation_matrix,
                     three_class_histogram, threshold_estimate)

DICKE_VEC = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
DICKE_RHO = InternalDensityMatrix(np.outer(DICKE_VEC, DICKE_VEC))


def reference_rho(diag_sum=0.74, offset=0.58):
    """Valid state with a given diagonal sum and bright-pair coherence."""
    rest = (1.0 - diag_sum) / 2.0
    m = np.diag([rest, diag_sum / 2.0, diag_sum / 2.0, rest]).astype(complex)
    m[1, 2] = m[2, 1] = offset / 2.0
    return InternalDensityMatrix(m)


class TestTraceOutMotion:
    def test_bright_state_with_ground_motion(self):
        space = build_space(2, 5)
        rho = trace_out_motion(make_dicke(2, 1, space))
        assert rho.matrix[1, 2] == pytest.approx(0.5)      # du, ud
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)

    def test_motional_which_path_kills_coherence(self):
        space = build_space(2, 5)
        amp = np.zeros(space.dim, dtype=complex)
        amp[space.index("du", 0)] = 1 / math.sqrt(2)
        amp[space.index("ud", 1)] = 1 / math.sqrt(2)
        rho = trace_out_motion(StateVector(space, amp))
        # hand-computed partial trace: diagonal 1/2, 1/2 and no du-ud coherence
        assert rho.matrix[1, 1] == pytest.approx(0.5)      # du, du
        assert rho.matrix[2, 2] == pytest.approx(0.5)      # ud, ud
        assert abs(rho.matrix[1, 2]) < 1e-15

    def test_product_state(self):
        space = build_space(2, 5)
        rho = trace_out_motion(embed(space, "dd", 1))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected)

    def test_three_ions(self):
        # W state: uniform 1/3 coherences among the one-up words, zero elsewhere
        space = build_space(3, 2)
        rho = trace_out_motion(make_dicke(3, 1, space))
        one_up = [space.index(w, 0) // space.n_fock for w in ("ddu", "dud", "udd")]
        expected = np.zeros((8, 8))
        expected[np.ix_(one_up, one_up)] = 1.0 / 3.0
        assert rho.n_qubits == 3
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_mixture_of_states_on_different_spaces_rejected(self):
        a, b = embed(build_space(2, 2), "dd", 0), embed(build_space(2, 3), "dd", 0)
        with pytest.raises(ValueError):
            trace_out_motion([(0.5, a), (0.5, b)])


def fidelity_dicke(rho):
    """Closed-form two-ion Dicke fidelity, the oracle for ``dicke_fidelity``:
    ``F = (rho_du,du + rho_ud,ud)/2 + Re(rho_du,ud)``.
    """
    m = rho.matrix
    return float(np.real(m[1, 1] + m[2, 2]) / 2.0 + np.real(m[1, 2]))


class TestFidelity:
    def test_decomposition_arithmetic(self):
        assert fidelity_dicke(reference_rho()) == pytest.approx(0.66, abs=1e-12)

    def test_pure_target(self):
        assert fidelity_dicke(DICKE_RHO) == pytest.approx(1.0)
        target = make_dicke(2, 1, build_space(2, 3))
        assert dicke_fidelity(trace_out_motion(target)) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = InternalDensityMatrix(np.eye(4) / 4)
        assert fidelity_dicke(rho) == pytest.approx(0.25)

    def test_equals_matrix_sandwich_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            rho = random_density_matrix(rng)
            sandwich = float(np.real(DICKE_VEC @ rho.matrix @ DICKE_VEC))
            assert abs(fidelity_dicke(rho) - sandwich) < 1e-12

    def test_closed_form_matches_dicke_fidelity_on_random_states(self):
        # motion entangled with the spins makes the reduced state mixed
        rng = np.random.default_rng(13)
        space = build_space(2, 3)
        for _ in range(200):
            amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            psi = StateVector(space, amp / np.linalg.norm(amp))
            rho = trace_out_motion(psi)
            assert abs(dicke_fidelity(rho) - fidelity_dicke(rho)) < 1e-12
            diag_sum, offdiag = fidelity_decomposition(rho)
            assert abs(dicke_fidelity(rho) - (diag_sum / 2 + offdiag / 2)) < 1e-12

    def test_decomposition_is_two_ion(self):
        with pytest.raises(ValueError):
            fidelity_decomposition(trace_out_motion(make_dicke(3, 1)))

    @pytest.mark.parametrize("n_qubits,m", [(2, 3), (2, -1), (3, 4), (1, 2)])
    def test_excitation_number_out_of_range(self, n_qubits, m):
        rho = trace_out_motion(make_dicke(n_qubits, 0))
        with pytest.raises(ValueError, match=f"excitation number m={m} outside"):
            dicke_fidelity(rho, m)


def thermal_weights(nbar, count):
    weights = np.array([nbar**n / (1.0 + nbar) ** (n + 1) for n in range(count)])
    return weights / weights.sum()


class TestReducedStateEquivalence:
    """Readouts of the reduced state vs the amplitude formulas of its states."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 4),
           n_max=st.integers(0, 4),
           n_states=st.integers(1, 4),
           nbar=st.floats(0.01, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_populations_and_fidelities_match_amplitudes(self, n_qubits, n_max, n_states,
                                                         nbar, seed):
        rng = np.random.default_rng(seed)
        space = build_space(n_qubits, n_max)
        # random amplitudes entangle the spins with the motion
        amps = rng.normal(size=(n_states, space.dim)) + 1j * rng.normal(size=(n_states, space.dim))
        states = [StateVector(space, a / np.linalg.norm(a)) for a in amps]
        weights = thermal_weights(nbar, n_states)
        mixture = list(zip(weights, states))
        rho = trace_out_motion(mixture if n_states > 1 else states[0])
        assert rho.matrix.shape == (2**n_qubits,) * 2

        words = psi_internal_populations(states[0]).keys()
        for s, word in enumerate(words):
            expected = sum(w * psi_internal_populations(psi)[word] for w, psi in mixture)
            assert abs(rho.populations()[s] - expected) < 1e-12
        for m in range(n_qubits + 1):
            expected = sum(w * psi_dicke_fidelity(psi, m) for w, psi in mixture)
            assert abs(dicke_fidelity(rho, m) - expected) < 1e-12


class TestRotationAndParity:
    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng)
        for phi in (0.0, 0.4, 2.2):
            assert np.trace(rotate_global(rho, phi).matrix).real == pytest.approx(1.0)

    def test_all_down_rotates_to_uniform(self):
        rho = InternalDensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        for phi in (0.0, 1.0, 2.5):
            pops = rotate_global(rho, phi).populations()
            assert np.allclose(pops, 0.25, atol=1e-12)

    def test_basis_state_parities(self):
        assert parity(InternalDensityMatrix(np.diag([1.0, 0, 0, 0]))) == 1.0
        assert parity(InternalDensityMatrix(np.diag([0, 1.0, 0, 0]))) == -1.0

    def test_dicke_parity_phase_independent(self):
        for phi in np.linspace(0, math.pi, 17):
            assert parity(rotate_global(DICKE_RHO, phi)) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_is_unitary(self):
        for phi in (0.0, 0.7, 3.1):
            r = rotation_matrix(phi)
            assert np.allclose(r @ r.conj().T, np.eye(4), atol=1e-14)


class TestParityCurve:
    def test_ghz_type_oscillation(self):
        m = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        m[0, 3] = m[3, 0] = 0.5
        rho = InternalDensityMatrix(m)
        grid = np.linspace(0, math.pi, 9, endpoint=False)
        assert np.allclose(parity_curve(rho, grid).values, -np.cos(2 * grid), atol=1e-12)

    def test_dicke_constant_unity(self):
        for v in parity_curve(DICKE_RHO, np.linspace(0, math.pi, 13)).values:
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_operator_equals_closed_form_random(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            rho = random_density_matrix(rng)
            phi = float(rng.uniform(0, 2 * math.pi))
            op_value = parity(rotate_global(rho, phi))
            assert abs(op_value - parity_closed_form(rho, phi)) < 1e-10

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            parity_curve(DICKE_RHO, [])

    def test_other_ion_numbers_rejected(self):
        for n_qubits in (1, 3):
            rho = trace_out_motion(make_dicke(n_qubits, 1))
            with pytest.raises(ValueError, match="parity is defined for two ions, got "
                               f"{n_qubits}"):
                parity_curve(rho, [0.0, 1.0])

    def test_closed_form_mismatch_names_the_first_failing_phase(self, monkeypatch):
        closed_form = measurement.parity_closed_form

        def skewed(rho, phi):
            return closed_form(rho, phi) + np.where(phi > 1.0, 1e-6, 0.0)

        monkeypatch.setattr(measurement, "parity_closed_form", skewed)
        grid = np.linspace(0, math.pi, 10, endpoint=False)
        with pytest.raises(RuntimeError, match=rf"^parity mismatch at phi={grid[4]:.6f}: "
                           r"operator 1 vs closed form 1\.000001$"):
            parity_curve(DICKE_RHO, grid)


class TestBatchedAgainstPerPhase:
    """The batched analysis pulse against the per-phase oracle, phase by phase.

    On numpy 2.4 (x86-64, OpenBLAS) populations and parity are bit-identical
    to the per-phase arithmetic, so the comparison is exact.
    """

    @staticmethod
    def assert_matches_oracle(rho, grid):
        curve = parity_curve(rho, grid)
        rotated = [rotate_global(rho, float(phi)) for phi in grid]
        assert np.array_equal(curve.phi, grid)
        assert np.array_equal(curve.populations, [r.populations() for r in rotated])
        assert np.array_equal(curve.values, [parity(r) for r in rotated])

    def test_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            rho = random_density_matrix(rng)
            grid = rng.uniform(-2 * math.pi, 4 * math.pi, size=int(rng.integers(1, 40)))
            self.assert_matches_oracle(rho, grid)

    def test_dicke_state(self):
        # the du/ud populations are rounding residue (~1e-32) here; whether
        # each residue is positive decides the draws of the sampled column
        self.assert_matches_oracle(DICKE_RHO, np.linspace(0, math.pi, 2200, endpoint=False))
        self.assert_matches_oracle(trace_out_motion(make_dicke(2, 1)),
                                   np.linspace(0, math.pi, 997, endpoint=False))


class TestBellTransfer:
    def test_half_pulse_reaches_even_parity_bell_state(self):
        rotated = rotate_global(DICKE_RHO, 0.0)
        coherence = rotated.matrix[0, 3]      # dd, uu
        assert abs(coherence) == pytest.approx(0.5, abs=1e-12)
        chi = -np.angle(coherence)
        bell = np.array([1.0, 0.0, 0.0, np.exp(1j * chi)]) / math.sqrt(2)
        overlap = float(np.real(bell.conj() @ rotated.matrix @ bell))
        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestFitParity:
    def test_noiseless_exact(self):
        a, b, c = 0.3, -0.5, 0.2
        grid = np.linspace(0, math.pi, 12, endpoint=False)
        samples = [(p, a + b * math.cos(2 * p) + c * math.sin(2 * p)) for p in grid]
        fit = fit_parity(samples)
        assert fit.offset == pytest.approx(a, abs=1e-12)
        assert fit.cos_amp == pytest.approx(b, abs=1e-12)
        assert fit.sin_amp == pytest.approx(c, abs=1e-12)
        assert fit.residual_rms < 1e-12

    def test_recovers_reference_offset(self):
        grid = np.linspace(0, math.pi, 20, endpoint=False)
        samples = [(p, 0.58 + 0.1 * math.cos(2 * p)) for p in grid]
        assert fit_parity(samples).offset == pytest.approx(0.58, abs=1e-12)

    def test_noise_calibration(self):
        # offset-estimate spread under sigma = 0.05 noise at 20 phases:
        # std = 0.05 / sqrt(20) = 0.0112, so |err| < 0.04 is a 3.6 sigma event
        rng = np.random.default_rng(99)
        grid = np.linspace(0, math.pi, 20, endpoint=False)
        clean = 0.58 + 0.1 * np.cos(2 * grid)
        hits = 0
        for _ in range(1000):
            noisy = clean + rng.normal(0, 0.05, size=20)
            fit = fit_parity(list(zip(grid, noisy)))
            hits += abs(fit.offset - 0.58) < 0.04
        assert hits >= 950

    def test_degenerate_phases_rejected(self):
        samples = [(0.1, 1.0), (0.1 + math.pi, 0.9), (0.1 + 2 * math.pi, 1.1)]
        with pytest.raises(ValueError):
            fit_parity(samples)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_parity([(0.0, 1.0), (1.0, 0.5)])


class TestHistogram:
    def test_both_bright_cluster(self):
        hist = simulate_histogram((1.0, 0.0, 0.0), shots=10_000, seed=4)
        counts = np.arange(len(hist))
        mean = float((counts * hist).sum() / hist.sum())
        assert mean == pytest.approx(140.5, abs=1.0)
        assert hist[counts <= 105].sum() < 0.01 * hist.sum()

    def test_all_dark_without_background(self, monkeypatch):
        monkeypatch.setattr(measurement, "BACKGROUND_MEAN", 0.0)
        hist = simulate_histogram((0.0, 0.0, 1.0), shots=500, seed=1)
        assert hist[0] == 500
        assert hist.sum() == 500

    def test_deterministic_under_seed(self):
        a = simulate_histogram((0.2, 0.5, 0.3), shots=2000, seed=42)
        b = simulate_histogram((0.2, 0.5, 0.3), shots=2000, seed=42)
        assert np.array_equal(a, b)

    def test_middle_class_statistics(self):
        hist = simulate_histogram((0.13, 0.74, 0.13), shots=10_000, seed=7)
        est = threshold_estimate(hist, (35, 105))
        assert est[1] == pytest.approx(0.74, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_histogram((0.5, 0.6, -0.1), shots=10, seed=0)
        with pytest.raises(ValueError):
            simulate_histogram((0.5, 0.2, 0.2), shots=10, seed=0)
        with pytest.raises(ValueError):
            simulate_histogram((1.0, 0.0, 0.0), shots=0, seed=0)
        with pytest.raises(ValueError):
            simulate_histogram((1.0,), shots=10, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**31 + 5])
    def test_two_ions_equal_three_class_model(self, seed):
        for pops in ((0.13, 0.74, 0.13), (1.0, 0.0, 0.0), (0.2, 0.5, 0.3)):
            assert np.array_equal(simulate_histogram(pops, shots=3000, seed=seed),
                                  three_class_histogram(pops, shots=3000, seed=seed))

    @pytest.mark.parametrize("n_ions", [1, 3, 4])
    def test_class_means_for_n_ions(self, n_ions):
        # class m has m ions up and n_ions - m bright ones
        for m in range(n_ions + 1):
            pops = np.eye(n_ions + 1)[m]
            hist = simulate_histogram(pops, shots=20_000, seed=m)
            counts = np.arange(len(hist))
            mean = float((counts * hist).sum() / hist.sum())
            assert mean == pytest.approx(0.5 + 70.0 * (n_ions - m), abs=1.0)

    def test_round_trip(self):
        pops = (0.13, 0.74, 0.13)
        shots = 100_000
        hist = simulate_histogram(pops, shots=shots, seed=13)
        est = threshold_estimate(hist, (35, 105))
        for p, e in zip(pops, est):
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(e - p) <= 3 * sigma


class TestDensityMatrixValidation:
    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            InternalDensityMatrix(np.eye(4))

    def test_positivity_enforced(self):
        m = np.diag([0.8, 0.5, -0.2, -0.1])
        with pytest.raises(ValueError):
            InternalDensityMatrix(m)

    @pytest.mark.parametrize("shape", [(3, 3), (1, 1), (4, 2), (4,)])
    def test_shape_enforced(self, shape):
        with pytest.raises(ValueError):
            InternalDensityMatrix(np.ones(shape) / shape[0])

    def test_hermiticity_enforced(self):
        m = np.diag([0.25] * 4).astype(complex)
        m[0, 1] = 0.3
        with pytest.raises(ValueError):
            InternalDensityMatrix(m)
