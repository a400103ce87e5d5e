"""Fock-split propagation: analytic oracles, dense oracles and structure checks.

Two dense full-space oracles run without any reduction: ``brute_force_evolve``
applies the exact exponential of the midpoint Hamiltonian (the accuracy
reference the split is pinned against), and ``dense_split_evolve`` composes the
same five-stage Suzuki step of Fock-number Strang splits as ``evolve`` (the
equivalence reference for the block and Dicke-state reductions).  ``sequential_chunk``
forms a chunk's step unitaries ``Q Q^T`` from their factors and applies them
one matrix-vector product at a time (the reference for the chunk kernel), and
``strang_evolve`` runs single Strang steps through the propagator's own
kernels (what the second-order test measures).
"""

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickesim import (CompensationMode, DriveConfig, ExperimentConfig, NumericsError,
                      PulseShape, ResourceGuardError, Sideband, StateVector,
                      StepSizeError, TruncationLeakError, build_space, embed, evolve,
                      make_dicke, run_rap)
from dickesim import propagator
from dickesim.core import dicke_columns
from dickesim.drive import CompensationKind, DriveTerms, TWO_PI, coefficients, drive_terms
from oracles import (checkpoint_states, connected_components, dense_terms, drive_config,
                     excitation_number, hamiltonian_matrix, overlap, population,
                     prepare_fock1, psi_internal_populations, squared_overlap,
                     symmetric_transform)

OMEGA_PEAK = TWO_PI * 145e3
SIGMA = 122e-6
OMEGA_V = TWO_PI * 0.7e6
ETA = 0.082


def rap_drive(compensation=CompensationMode.zero_carrier(), chirp_sign=1,
              omega_peak=OMEGA_PEAK, sigma=SIGMA, n_max=5, sideband=Sideband.RED):
    chirp = TWO_PI * 100e3 * chirp_sign
    pulse = PulseShape(omega_peak=omega_peak, sigma=sigma,
                       chirp_start=-chirp, chirp_end=+chirp)
    return drive_config(space=build_space(2, n_max), eta=ETA, omega_v=OMEGA_V,
                        pulse=pulse, sideband=sideband,
                        compensation=compensation)


COMPENSATIONS = [CompensationMode.none(), CompensationMode.zero_carrier(),
                 CompensationMode.effective(0.6, TWO_PI * 400e3)]
DRIVE_KINDS = [(sideband, comp) for sideband in Sideband for comp in COMPENSATIONS]


def both_couplings(cfg):
    """Carrier and sideband couplings coexist: a sideband drive that keeps its carrier."""
    return (cfg.sideband is not Sideband.CARRIER
            and cfg.compensation.kind is not CompensationKind.ZERO_CARRIER)


def step_rule(cfg):
    """The frequencies the Fock split integrates approximately, written out."""
    pulse = cfg.pulse
    carrier = (cfg.sideband is Sideband.CARRIER
               or cfg.compensation.kind is not CompensationKind.ZERO_CARRIER)
    rabi = pulse.omega_peak * sum(cfg.ion_weights)
    coupling = rabi if carrier else cfg.eta * math.sqrt(cfg.space.n_max) * rabi
    rates = [coupling, abs(pulse.chirp_start), abs(pulse.chirp_end),
             max(abs(o) for o in cfg.ion_detuning_offsets), 8.0 / pulse.sigma]
    if both_couplings(cfg):
        # not a rate: a margin that keeps omega_v dt <= 2.4 at the default step
        rates.append(cfg.omega_v / 4)
    return max(rates)


def weak_drive(compensation, sideband):
    """A weak, chirp-free, long drive: under both couplings the trap margin sets its step."""
    return rap_drive(compensation, chirp_sign=0, omega_peak=TWO_PI * 2e3, sigma=100e-6,
                     sideband=sideband)


def brute_force_evolve(cfg, psi0, n_steps, duration):
    """Reference propagator: same midpoint rule, dense full space, no reductions."""
    dt = duration / n_steps
    psi = psi0.amplitudes.astype(complex)
    for k in range(n_steps):
        h = hamiltonian_matrix(cfg, (k + 0.5) * dt)
        w, v = np.linalg.eigh(h)
        psi = (v * np.exp(-1j * w * dt)) @ (v.conj().T @ psi)
    return psi


def dense_strang_step(cfg, psi, t, h_len):
    """One Strang step of length ``h_len`` at midpoint ``t``, dense full space.

    It applies ``A B A`` with ``A = exp(-i H_F h_len/2)`` for the
    Fock-number-preserving entries of H and ``B = exp(-i H_R h_len)`` for the
    rest, both through a dense eigendecomposition.
    """
    fock = np.arange(cfg.space.dim) % cfg.space.n_fock
    same = fock[:, None] == fock[None, :]
    h = hamiltonian_matrix(cfg, t)
    wf, vf = np.linalg.eigh(np.where(same, h, 0.0))
    wr, vr = np.linalg.eigh(np.where(same, 0.0, h))
    a = (vf * np.exp(-0.5j * wf * h_len)) @ vf.T
    return a @ ((vr * np.exp(-1j * wr * h_len)) @ (vr.T @ (a @ psi)))


def dense_split_evolve(cfg, psi0, n_steps, duration):
    """Reference composed split, dense full space, no reductions.

    Each step of length dt is Suzuki's composition of Strang steps of lengths
    ``p dt, p dt, (1 - 4p) dt, p dt, p dt`` in turn, each at its own midpoint,
    with ``p = 1 / (4 - 4^(1/3))``.
    """
    p = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    dt = duration / n_steps
    psi = psi0.amplitudes.astype(complex)
    for k in range(n_steps):
        start = k * dt
        for h_len in (p * dt, p * dt, (1.0 - 4.0 * p) * dt, p * dt, p * dt):
            psi = dense_strang_step(cfg, psi, start + h_len / 2, h_len)
            start += h_len
    return psi


def sequential_chunk(q, psi, work=None):
    """Reference chunk kernel: the state after every step, one matvec per step."""
    unitaries = q @ q.transpose(0, 2, 1)
    states = np.empty(q.shape[:2], dtype=complex)
    for u, out in zip(unitaries, states):
        psi = np.dot(u, psi, out=out)
    return states


def strang_evolve(cfg, psi0, n_steps):
    """Final state after ``n_steps`` single Strang steps at uniform midpoints.

    The propagator's own ``step_factors`` and ``_run_chunk``, fed a uniform
    schedule instead of the composed step's sub-steps, on the product basis.
    """
    terms, n_fock = drive_terms(cfg), cfg.space.n_fock
    dt = cfg.pulse.duration / n_steps
    psi = psi0.amplitudes.astype(complex)
    final = np.zeros_like(psi)
    chunk = 1024
    split = propagator._fock_split(terms, weighted_block(terms, psi), n_fock)
    m = len(split.idx)
    block, work = psi[split.idx], np.empty((3, chunk, m, m), dtype=complex)
    for start in range(0, n_steps, chunk):
        midpoints = (np.arange(start, min(start + chunk, n_steps)) + 0.5) * dt
        q = split.step_factors(coefficients(cfg, midpoints), cfg.omega_v,
                               np.full(len(midpoints), dt), work[0])
        block = propagator._run_chunk(q, block, work[1:])[-1].copy()
    final[split.idx] = block
    return final


def random_factors(rng, n_steps, m):
    """Factor stacks ``Q = O diag(exp(i theta))``, O real orthogonal: ``Q Q^T`` is unitary."""
    o = np.linalg.qr(rng.normal(size=(n_steps, m, m)))[0]
    return o * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n_steps, 1, m)))


def chunk_work(n_steps, m):
    return np.empty((2, n_steps, m, m), dtype=complex)


def scan_drive():
    """Scaled-down RAP drive whose ``|dd,1>`` block has two states (the scan path)."""
    pulse = PulseShape(omega_peak=TWO_PI * 10e3, sigma=10e-6,
                       chirp_start=-TWO_PI * 5e3, chirp_end=TWO_PI * 5e3)
    return drive_config(space=build_space(2, 3), eta=0.1, omega_v=TWO_PI * 20e3,
                        pulse=pulse, compensation=CompensationMode.zero_carrier())


def rabi_cycle_drive():
    """One ion on the blue sideband: ``|d,1> -> |u,2> -> |d,1>`` over ``t_cycle``.

    The block ``{|d,1>, |u,2>}`` has two states and its population sits at
    ``n_max = 2`` mid-cycle.
    """
    eta = 0.25
    cfg = drive_config(space=build_space(1, 2), eta=eta, omega_v=TWO_PI * 0.2e6,
                       pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE,
                       compensation=CompensationMode.zero_carrier())
    return cfg, 2 * math.pi / (eta * OMEGA_PEAK * math.sqrt(2))


class TestFreeEvolution:
    def test_zero_drive_keeps_populations(self):
        cfg = drive_config(space=build_space(2, 5), eta=ETA, omega_v=OMEGA_V,
                           pulse=PulseShape(omega_peak=0.0, sigma=SIGMA),
                           compensation=CompensationMode.none())
        psi0 = embed(cfg.space, "dd", 1)
        res = evolve(cfg, psi0, dt=1e-8)
        # diagonal H: phase only (up to per-step round-off, bounded by the
        # norm-drift invariant); |dd,1> has no up ions, so the accumulated
        # phase is exp(-i omega_v T) regardless of the detuning
        assert population(res.final_state, "dd", 1) == pytest.approx(1.0, abs=1e-9)
        phase = res.final_state.amplitudes[cfg.space.index("dd", 1)]
        expected = np.exp(-1j * OMEGA_V * cfg.pulse.duration)
        assert phase == pytest.approx(expected, abs=1e-6)
        assert res.norm_drift < 1e-9


class TestAnalyticPiPulse:
    def test_blue_sideband_rabi_transfer(self):
        # two-level oracle: P_transfer(t) = sin^2(eta Omega t / 2)
        space = build_space(1, 3)
        cfg = drive_config(space=space, eta=ETA, omega_v=OMEGA_V,
                           pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE,
                           compensation=CompensationMode.zero_carrier())
        t_pi = math.pi / (ETA * OMEGA_PEAK)
        psi0 = embed(space, "d", 0)
        for frac in (0.25, 0.5, 1.0):
            res = evolve(cfg, psi0, duration=frac * t_pi)
            expected = math.sin(frac * math.pi / 2) ** 2
            assert population(res.final_state, "u", 1) == pytest.approx(
                expected, abs=1e-3)
        res = evolve(cfg, psi0, duration=t_pi)
        assert population(res.final_state, "u", 1) == pytest.approx(1.0, abs=1e-3)


class TestGuards:
    def test_step_size_guard(self):
        # the chirp endpoint sets the guard: 2 us is 1.26 / max_frequency
        cfg = rap_drive()
        with pytest.raises(StepSizeError):
            evolve(cfg, embed(cfg.space, "dd", 1), dt=2e-6)

    def test_truncation_leak(self):
        space = build_space(1, 2)
        cfg = drive_config(space=space, eta=ETA, omega_v=OMEGA_V,
                           pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE,
                           compensation=CompensationMode.zero_carrier())
        t_pi = math.pi / (ETA * OMEGA_PEAK * math.sqrt(2))   # |d,1> -> |u,2>
        with pytest.raises(TruncationLeakError):
            evolve(cfg, embed(space, "d", 1), duration=t_pi)

    def test_transient_leak_within_one_chunk(self):
        # a full Rabi cycle |d,1> -> |u,2> -> |d,1> puts all population at
        # n_max mid-pulse and returns it by the end, inside one chunk, so
        # only a per-step check sees it
        space = build_space(1, 2)
        eta = 0.25
        cfg = drive_config(space=space, eta=eta, omega_v=TWO_PI * 0.2e6,
                           pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE,
                           compensation=CompensationMode.zero_carrier())
        t_cycle = 2 * math.pi / (eta * OMEGA_PEAK * math.sqrt(2))
        dt = t_cycle / 1000
        assert math.ceil(t_cycle / dt) <= propagator.CHUNK_STEPS
        with pytest.raises(TruncationLeakError, match="at t = "):
            evolve(cfg, embed(space, "d", 1), dt=dt, duration=t_cycle)

    def test_step_cap_boundary(self, monkeypatch):
        # at a cap of 10 steps, 10 steps run and 11 are refused before any
        # block is built; dt = 2^-21 s makes duration / dt exact
        monkeypatch.setattr(propagator, "STEP_CAP", 10)
        cfg = rap_drive()
        psi0, dt = embed(cfg.space, "dd", 1), 2.0**-21
        assert evolve(cfg, psi0, dt=dt, duration=10 * dt).steps == 10

        def no_blocks(*args):
            raise AssertionError("blocks built for a refused run")

        monkeypatch.setattr(DriveTerms, "coupled", no_blocks)
        with pytest.raises(ResourceGuardError,
                           match=r"^11 steps of dt=4\.768e-07 s \(given, where max_frequency "
                                 r"= 6\.283e\+05 rad/s is a chirp endpoint\) over the red "
                                 r"drive's 5\.245e-06 s exceed the cap of 10$"):
            evolve(cfg, psi0, dt=dt, duration=11 * dt)

    def test_step_cap_names_the_default_step(self, monkeypatch):
        monkeypatch.setattr(propagator, "STEP_CAP", 10)
        cfg = rap_drive()
        n_steps = math.ceil(cfg.pulse.duration / propagator.default_dt(cfg))
        with pytest.raises(ResourceGuardError,
                           match=f"^{n_steps} steps .* \\(0.6 / max_frequency, where "):
            evolve(cfg, embed(cfg.space, "dd", 1))

    def test_flat_pulse_needs_duration(self):
        space = build_space(1, 2)
        cfg = drive_config(space=space, eta=ETA, omega_v=OMEGA_V,
                           pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE)
        with pytest.raises(ValueError):
            evolve(cfg, embed(space, "d", 0))


class TestStepRule:
    """``max_frequency`` holds only what the split integrates approximately.
    ``omega_v`` multiplies an excitation number that commutes with the
    sideband coupling; it enters as ``omega_v / 4``, a margin that keeps
    ``omega_v dt`` at most 2.4, only where carrier and sideband couplings
    coexist."""

    @pytest.mark.parametrize("sideband,comp", DRIVE_KINDS)
    def test_trap_frequency_only_with_both_couplings(self, sideband, comp):
        weak = weak_drive(comp, sideband)
        for cfg in (rap_drive(comp, sideband=sideband), weak):
            assert propagator.max_frequency(cfg) == step_rule(cfg)
            assert ("the trap-period margin omega_v / 4"
                    in propagator._step_frequencies(cfg)) is both_couplings(cfg)
        # where the margin counts it sets the weak drive's step: omega_v dt = 2.4
        weak_phase = propagator.default_dt(weak) * OMEGA_V
        assert (weak_phase == pytest.approx(2.4)) is both_couplings(weak)

    @pytest.mark.parametrize("sideband", [Sideband.RED, Sideband.BLUE])
    @pytest.mark.parametrize("comp", [CompensationMode.none(),
                                      CompensationMode.effective(0.6, TWO_PI * 400e3)])
    def test_carrier_coupled_sideband_drives_step_at_their_coupling(self, sideband, comp):
        # at the operating point the coupling, 1.66x omega_v / 4, sets the step
        cfg = rap_drive(comp, sideband=sideband)
        assert propagator.max_frequency(cfg) == cfg.total_peak_rabi
        assert propagator.default_dt(cfg) == 0.60 / cfg.total_peak_rabi
        # 4222 and 15 steps if omega_v itself were a rate of the rule
        assert math.ceil(cfg.pulse.duration / propagator.default_dt(cfg)) == 1749
        res = evolve(cfg, embed(cfg.space, "dd", 1), duration=2e-6)
        assert res.steps == 7

    @pytest.mark.parametrize("sideband,comp", DRIVE_KINDS)
    def test_guard_at_its_bound(self, sideband, comp):
        # the weak drive puts the trap margin at the bound wherever it counts
        for cfg in (rap_drive(comp, sideband=sideband), weak_drive(comp, sideband)):
            psi0 = embed(cfg.space, "dd", 1)
            limit = 0.75 / propagator.max_frequency(cfg)
            # duration = dt makes the effective step the requested one exactly
            coarse = limit * (1 + 1e-9)
            with pytest.raises(StepSizeError):
                evolve(cfg, psi0, dt=coarse, duration=coarse)
            fine = limit * (1 - 1e-9)
            assert evolve(cfg, psi0, dt=fine, duration=fine).steps == 1

    @pytest.mark.parametrize("sigma", [SIGMA, math.inf])
    def test_undriven_zero_carrier_pulse(self, sigma):
        # nothing but the envelope to resolve: its floor gives 0.075 sigma for
        # a Gaussian, one exact step for a flat pulse (default_dt is infinite)
        pulse = PulseShape(omega_peak=0.0, sigma=sigma)
        cfg = drive_config(space=build_space(2, 3), eta=ETA, omega_v=OMEGA_V, pulse=pulse,
                           compensation=CompensationMode.zero_carrier())
        duration = 50e-6 if math.isinf(sigma) else pulse.duration
        dt = propagator.default_dt(cfg)
        assert dt == (math.inf if math.isinf(sigma) else pytest.approx(0.075 * sigma))
        res = evolve(cfg, embed(cfg.space, "dd", 1), duration=duration)
        assert res.steps == max(1, math.ceil(duration / dt))
        assert res.steps == (1 if math.isinf(sigma) else 63)
        # |dd,1> has no up ion: only the phase of omega_v n
        amplitude = res.final_state.amplitudes[cfg.space.index("dd", 1)]
        assert amplitude == pytest.approx(np.exp(-1j * OMEGA_V * duration), abs=1e-12)

    @pytest.mark.parametrize("kwargs,offsets,name", [
        ({"compensation": CompensationMode.none(), "chirp_sign": 0,
          "omega_peak": TWO_PI * 2e3, "sigma": 100e-6}, (0.0, 0.0),
         "the trap-period margin omega_v / 4"),
        ({}, (0.0, 0.0), "a chirp endpoint"),
        ({"omega_peak": TWO_PI * 1e6}, (0.0, 0.0), "the peak coupling"),
        ({}, (TWO_PI * 300e3, 0.0), "an ion detuning offset"),
        ({"sigma": 1e-6}, (0.0, 0.0), "the envelope floor 8/sigma"),
    ])
    def test_refusal_names_the_bound(self, kwargs, offsets, name):
        cfg = replace(rap_drive(**kwargs), ion_detuning_offsets=offsets)
        with pytest.raises(StepSizeError, match=f"rad/s is {name}$"):
            evolve(cfg, embed(cfg.space, "dd", 1), dt=1e-3, duration=1e-3)


class TestUnitarityAndConvergence:
    def test_norm_drift_full_pulse(self):
        cfg = rap_drive()
        res = evolve(cfg, embed(cfg.space, "dd", 1))
        assert res.norm_drift < 1e-9

    def test_long_pulse_rescaled_to_unit_norm(self):
        # ~310k steps at the experiment step: without the per-chunk rescale
        # the final norm^2 drifts by ~1e-10
        cfg = rap_drive(sigma=600e-6)
        res = evolve(cfg, embed(cfg.space, "dd", 1), dt=0.04 / OMEGA_V)
        assert res.steps > 300_000
        assert abs(res.final_state.norm_sq - 1.0) < 1e-13
        assert res.norm_drift < 1e-9

    def test_non_unitary_step_raises(self, monkeypatch):
        step_factors = propagator._FockSplit.step_factors

        def leaky(self, *args):
            return step_factors(self, *args) * (1.0 + 1e-6)

        monkeypatch.setattr(propagator._FockSplit, "step_factors", leaky)
        cfg = rap_drive()
        with pytest.raises(NumericsError, match="norm drifted by"):
            evolve(cfg, embed(cfg.space, "dd", 1))

    @pytest.mark.parametrize("excess", [1e-6, 5e-10])
    def test_norm_guard_reads_every_step(self, monkeypatch, excess):
        # one whole step inside the first chunk scales the norm^2 by 1 + excess
        # and the next step scales it back, so the drift peaks at that step
        # alone, far from the chunk's last step
        cfg = rap_drive()
        psi0 = embed(cfg.space, "dd", 1)
        plain = evolve(cfg, psi0)
        k, n_sub = 100, len(propagator.SUBSTEP_LENGTHS)
        step_factors = propagator._FockSplit.step_factors
        chunks = []

        def spiked(self, *args):
            q = step_factors(self, *args)
            if not chunks:
                scale = (1.0 + excess) ** 0.25   # S = Q Q^T, norm^2 goes as Q^4
                q[k * n_sub] *= scale
                q[(k + 1) * n_sub] /= scale
            chunks.append(len(q) // n_sub)
            return q

        monkeypatch.setattr(propagator._FockSplit, "step_factors", spiked)
        if excess > propagator.NORM_DRIFT_LIMIT:
            with pytest.raises(NumericsError) as err:
                evolve(cfg, psi0)
            assert f"at t = {(k + 1) * plain.dt:.3e} s;" in str(err.value)
        else:
            res = evolve(cfg, psi0)
            assert res.norm_drift == pytest.approx(excess, rel=1e-2)
            assert plain.norm_drift < 1e-2 * excess
        assert chunks[0] > k + 2

    @staticmethod
    def order_drive():
        """Scaled-down frequencies, so coarse steps pass the dt guard."""
        pulse = PulseShape(omega_peak=TWO_PI * 10e3, sigma=SIGMA,
                           chirp_start=-TWO_PI * 5e3, chirp_end=TWO_PI * 5e3)
        cfg = drive_config(space=build_space(2, 3), eta=0.1, omega_v=TWO_PI * 20e3,
                           pulse=pulse, compensation=CompensationMode.none())
        return cfg, embed(cfg.space, "dd", 1)

    def test_second_order_convergence(self):
        # one Strang sub-step per step: the error falls ~4x per halving
        cfg, psi0 = self.order_drive()
        ref = strang_evolve(cfg, psi0, 2**16)
        err_coarse = np.linalg.norm(strang_evolve(cfg, psi0, 2**11) - ref)
        err_fine = np.linalg.norm(strang_evolve(cfg, psi0, 2**12) - ref)
        assert err_coarse > 1e-10   # measurable, not machine noise
        assert 3.0 < err_coarse / err_fine < 5.2

    def test_composition_weights(self):
        # a symmetric composition of a symmetric second-order step is fourth
        # order when its weights sum to 1 and their cubes to 0
        weights = propagator.SUBSTEP_LENGTHS
        assert len(weights) == 5
        assert np.array_equal(weights, weights[::-1])
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
        assert math.fsum(weights**3) == pytest.approx(0.0, abs=1e-15)
        # the sub-steps' midpoints mirror about the step's own midpoint
        midpoints = propagator.SUBSTEP_MIDPOINTS
        assert np.allclose(midpoints + midpoints[::-1], 1.0, rtol=0, atol=1e-15)

    def test_fourth_order_convergence(self):
        # the composed step of evolve: the error falls ~16x per halving; the
        # guard admits 2^7 steps, and at 2^11 the error is already ~9e-12
        cfg, psi0 = self.order_drive()

        def final(n):
            return evolve(cfg, psi0, dt=cfg.pulse.duration / n).final_state.amplitudes

        ref = final(2**12)
        errors = [np.linalg.norm(final(2**k) - ref) for k in (7, 8, 9)]
        assert errors[-1] > 1e-10   # measurable, not machine noise
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 < coarse / fine < 18.0


REDUCTION_CONFIGS = [
    (CompensationMode.zero_carrier(), (1.0, 1.0)),
    (CompensationMode.none(), (1.0, 1.0)),
    (CompensationMode.effective(0.6, TWO_PI * 400e3), (1.0, 1.0)),
    (CompensationMode.none(), (1.0, 0.7)),
    # a weakly driven ion: its sideband entry (w eta / 2 ~ 4e-6) sits far
    # below 1e-12 of omega_v n_max but must still couple |dd,1> to |du,0>
    (CompensationMode.zero_carrier(), (1.0, 1e-4)),
]


def short_rap_drive(comp, weights):
    return drive_config(space=build_space(2, 3), eta=ETA, omega_v=OMEGA_V,
                        pulse=PulseShape(omega_peak=OMEGA_PEAK, sigma=20e-6,
                                         chirp_start=-TWO_PI * 100e3,
                                         chirp_end=TWO_PI * 100e3),
                        ion_weights=weights, compensation=comp)


class TestAgainstBruteForce:
    N_STEPS = 16384
    #: the reduced and the dense split share this discretisation, so their gap
    #: is rounding at any count the step guard admits (>= 230 here)
    REDUCTION_STEPS = 1024

    @pytest.mark.parametrize("comp,weights", REDUCTION_CONFIGS)
    def test_block_reductions_change_nothing(self, comp, weights):
        cfg = short_rap_drive(comp, weights)
        psi0 = embed(cfg.space, "dd", 1)
        duration = cfg.pulse.duration
        res = evolve(cfg, psi0, dt=duration / self.REDUCTION_STEPS)
        ref = dense_split_evolve(cfg, psi0, self.REDUCTION_STEPS, duration)
        assert np.linalg.norm(res.final_state.amplitudes - ref) < 1e-10

    @pytest.mark.parametrize("comp,weights", REDUCTION_CONFIGS)
    def test_split_close_to_midpoint_rule(self, comp, weights):
        cfg = short_rap_drive(comp, weights)
        psi0 = embed(cfg.space, "dd", 1)
        duration = cfg.pulse.duration
        res = evolve(cfg, psi0, dt=duration / self.N_STEPS)
        ref = brute_force_evolve(cfg, psi0, self.N_STEPS, duration)
        assert np.linalg.norm(res.final_state.amplitudes - ref) < 1e-7


class TestChunkMemory:
    def test_large_block_chunk_memory(self):
        # one 96-state block (four unequal ions, carrier on); 1024-step chunks
        # of 96 x 96 step unitaries peaked at ~612 MB; shorter chunks for
        # large blocks and one buffer per call keep it near 6 MB
        pulse = PulseShape(omega_peak=OMEGA_PEAK, sigma=5e-6,
                           chirp_start=-TWO_PI * 100e3, chirp_end=TWO_PI * 100e3)
        cfg = drive_config(space=build_space(4, 5), eta=ETA, omega_v=OMEGA_V,
                           pulse=pulse, ion_weights=(1.0, 0.9, 0.8, 0.7),
                           compensation=CompensationMode.none())
        psi0 = embed(cfg.space, "dddd", 1)
        tracemalloc.start()
        try:
            res = evolve(cfg, psi0, dt=pulse.duration / 2500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.norm_drift < 1e-9
        assert peak < 150e6


class TestChunkScan:
    """The prefix-product scan of ``_run_chunk`` against ``sequential_chunk``."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.sampled_from([1, 2, 3, 4, 5, 6, 18]),
           n_steps=st.one_of(st.integers(1, 5000),
                             st.sampled_from([1, 2, 3, 5, 4093, 4095, 4096, 4097, 4999])),
           seed=st.integers(0, 2**32 - 1))
    def test_scan_matches_sequential(self, m, n_steps, seed):
        rng = np.random.default_rng(seed)
        q = random_factors(rng, n_steps, m)
        psi = rng.normal(size=m) + 1j * rng.normal(size=m)
        psi /= np.linalg.norm(psi)
        ref = sequential_chunk(q, psi)
        states = propagator._run_chunk(q.copy(), psi.copy(), chunk_work(n_steps, m))
        assert np.abs(states - ref).max() < 1e-12

    @pytest.mark.parametrize("n_steps", [propagator.CHUNK_STEPS - 1,
                                         propagator.CHUNK_STEPS + 1,
                                         2 * propagator.CHUNK_STEPS + 7])
    def test_trajectory_matches_sequential(self, monkeypatch, n_steps):
        cfg = scan_drive()
        psi0 = embed(cfg.space, "dd", 1)
        dt = cfg.pulse.duration / n_steps
        res = evolve(cfg, psi0, dt=dt)
        monkeypatch.setattr(propagator, "_run_chunk", sequential_chunk)
        ref = evolve(cfg, psi0, dt=dt)
        assert res.block_size == 2 and res.steps == n_steps
        assert np.abs(res.final_state.amplitudes - ref.final_state.amplitudes).max() < 1e-12
        assert res.norm_drift == pytest.approx(ref.norm_drift, abs=1e-13)
        assert res.peak_leak == pytest.approx(ref.peak_leak, abs=1e-13)
        assert res.peak_leak_time == ref.peak_leak_time

    def test_leak_error_names_the_same_time(self, monkeypatch):
        cfg, t_cycle = rabi_cycle_drive()
        psi0 = embed(cfg.space, "d", 1)
        dt = t_cycle / (2 * propagator.CHUNK_STEPS + 7)
        messages = []
        for kernel in (propagator._run_chunk, sequential_chunk):
            monkeypatch.setattr(propagator, "_run_chunk", kernel)
            with pytest.raises(TruncationLeakError, match="at t = ") as err:
                evolve(cfg, psi0, dt=dt, duration=t_cycle)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_small_block_chunk_memory(self):
        # the chunk temporaries of a two-state block (4096-step chunks of 2x2
        # unitaries are 256 kB each) peak near 2-3 MB whatever the step count
        cfg = scan_drive()
        psi0 = embed(cfg.space, "dd", 1)
        for n_steps in (2 * propagator.CHUNK_STEPS + 7, 20 * propagator.CHUNK_STEPS):
            tracemalloc.start()
            try:
                res = evolve(cfg, psi0, dt=cfg.pulse.duration / n_steps)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert res.block_size == 2
            assert peak < 4e6

    def test_scan_works_in_place(self):
        # the states of a small block are a view of the buffer its chunk's
        # unitaries are formed in
        q = random_factors(np.random.default_rng(3), 500, 2)
        work = chunk_work(500, 2)
        states = propagator._run_chunk(q, np.array([1.0, 0.0], dtype=complex), work)
        assert states.shape == (500, 2)
        assert np.shares_memory(states, work)
        assert np.abs(states - sequential_chunk(q, np.array([1.0, 0.0]))).max() < 1e-12

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts the minor page faults getrusage reports on Linux")
    @pytest.mark.parametrize("block", [2, 18])
    def test_chunks_reuse_their_memory(self, block):
        # every chunk builds its stacks in one buffer, so ten times the chunks
        # fault in about as many pages (stacks allocated per chunk: ~250
        # faults per chunk of the 2-state scan block, ~1.6k per chunk of the
        # 18-state carrier block, as the allocator hands the memory back)
        import resource

        if block == 2:
            drive = scan_drive()
            psi0 = embed(drive.space, "dd", 1)
            dt = drive.pulse.duration / (20 * propagator.CHUNK_STEPS)
        else:
            cfg = ExperimentConfig(compensation=CompensationMode.none())
            drive, psi0 = cfg.rap_drive(), prepare_fock1(cfg)
            dt = propagator.default_dt(drive)
        chunk = min(propagator.CHUNK_STEPS, propagator.CHUNK_ENTRIES // block**2)
        faults = []
        for n_chunks in (2, 20):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            res = evolve(drive, psi0, dt=dt, duration=n_chunks * chunk * dt)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert res.block_size == block
        assert faults[1] - faults[0] < 18 * 25


class TestDiagnostics:
    @pytest.mark.parametrize("kwargs,block_size,symmetric", [
        # a sweep point: the scan path
        ({}, 2, True),
        # the carrier-coupled block: one matvec per step
        ({"compensation": CompensationMode.none()}, 18, True),
        # unequal ions stay in the product basis
        ({"ion_weights": (1.0, 0.9)}, 3, False),
    ])
    def test_representation_and_steps(self, kwargs, block_size, symmetric):
        cfg = ExperimentConfig(**kwargs)
        drive = cfg.rap_drive()
        duration = 2e-6       # the blocks do not depend on how long the pulse runs
        res = evolve(drive, prepare_fock1(cfg), duration=duration)
        assert res.block_size == block_size
        assert res.symmetric_basis is symmetric
        assert res.steps == math.ceil(duration / propagator.default_dt(drive))
        assert res.dt == pytest.approx(duration / res.steps, rel=1e-15)

    @pytest.mark.parametrize("compensation", [CompensationMode.zero_carrier(),
                                              CompensationMode.none()])
    def test_run_rap_steps_at_default_dt(self, compensation):
        cfg = ExperimentConfig(compensation=compensation)
        drive = cfg.rap_drive()
        res = run_rap(cfg).evolution
        assert propagator.default_dt(drive) == 0.60 / propagator.max_frequency(drive)
        assert res.steps == math.ceil(drive.pulse.duration / propagator.default_dt(drive))

    def test_run_rap_dt_override(self):
        # dt_ns sets the step; the default at this point is 955 ns
        cfg = ExperimentConfig(dt=1e-8)
        duration = cfg.pulse().duration
        res = run_rap(cfg).evolution
        assert res.steps == math.ceil(duration / 1e-8)
        assert res.dt == pytest.approx(duration / res.steps, rel=1e-15)
        assert res.dt == pytest.approx(1e-8, rel=1e-4)

    def test_peak_leak_and_its_time(self, monkeypatch):
        # all population reaches n_max half way through the cycle
        cfg, t_cycle = rabi_cycle_drive()
        psi0 = embed(cfg.space, "d", 1)
        dt = t_cycle / 2000
        monkeypatch.setattr(propagator, "LEAK_LIMIT", math.inf)
        res = evolve(cfg, psi0, dt=dt, duration=t_cycle)
        assert res.peak_leak == pytest.approx(1.0, abs=1e-5)
        assert res.peak_leak_time == pytest.approx(t_cycle / 2, abs=dt)


class TestManyIons:
    """With eta ~ 1/sqrt(N) the bright pair ``{|d..d,1>, |D,0>}`` evolves the
    same for every ion number, and the symmetric basis keeps it a 2-state block."""

    @pytest.fixture(scope="class")
    def two_ions(self):
        return run_rap(ExperimentConfig(n_max=3))

    @pytest.mark.parametrize("n_qubits", [3, 9])
    def test_symmetric_two_state_block(self, two_ions, n_qubits):
        res = run_rap(ExperimentConfig(n_qubits=n_qubits, n_max=3))
        assert res.evolution.symmetric_basis
        assert res.evolution.block_size == 2
        assert res.fidelity == pytest.approx(two_ions.fidelity, abs=1e-8)
        assert res.bound.value == pytest.approx(two_ions.bound.value, rel=1e-9)


def dense_pattern(terms):
    """Off-diagonal coupling pattern of dense terms: every exactly nonzero entry."""
    pattern = np.any(np.array(terms) != 0, axis=0)
    np.fill_diagonal(pattern, False)
    return pattern


def weighted_states(psi):
    """The basis states holding more of psi's weight than the propagator's floor."""
    return np.flatnonzero(np.abs(psi) ** 2 > propagator.BLOCK_WEIGHT_FLOOR)


def weighted_components(terms, psi):
    """The union of the dense pattern's components that hold a weighted state of psi."""
    held = [c for c in connected_components(dense_pattern(terms))
            if np.isin(c, weighted_states(psi)).any()]
    return np.sort(np.concatenate(held))


def weighted_block(record, psi):
    """The drive record's one block for psi, as ``evolve`` finds it."""
    return record.coupled(weighted_states(psi))


def sparse_state(space, entries, seed, last=1.0):
    """Random normalized amplitudes on ``entries`` random basis states, the
    last of them scaled by ``last`` before normalizing."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(space.dim, size=min(entries, space.dim), replace=False)
    amp = np.zeros(space.dim, dtype=complex)
    amp[idx] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    amp[idx[-1]] *= last
    return amp / np.linalg.norm(amp)


def dicke_split(n_qubits):
    """The oracle's symmetric basis split into its Dicke (bright) and dark columns."""
    transform = symmetric_transform(n_qubits)
    first = np.cumsum([0] + [math.comb(n_qubits, m) for m in range(n_qubits)])
    return transform[:, first], np.delete(transform, first, axis=1)


def dark_weight(space, psi):
    """Weight of psi outside the span of the Dicke states (times any Fock level)."""
    _, dark = dicke_split(space.n_qubits)
    return float(np.sum(np.abs(dark.T @ psi.reshape(-1, space.n_fock)) ** 2))


#: starting states: random amplitudes on the whole space, or on the Dicke
#: states times Fock levels, alone or with a dark admixture of amplitude 1e-11
#: (weight below BLOCK_WEIGHT_FLOOR) or 1e-9 (above it)
STARTS = {"random": None, "symmetric": 0.0, "dark 1e-11": 1e-11, "dark 1e-9": 1e-9}


def start_state(space, rng, start):
    """A normalized state of the kind ``start`` names (see ``STARTS``)."""
    def draw(columns):
        """Unit random amplitudes on the span of ``columns`` times every Fock level."""
        size = (columns.shape[1], space.n_fock)
        amp = columns @ (rng.normal(size=size) + 1j * rng.normal(size=size))
        return amp / np.linalg.norm(amp)

    admixture = STARTS[start]
    if admixture is None:
        return draw(np.eye(2**space.n_qubits)).ravel()
    dicke, dark = dicke_split(space.n_qubits)
    amp = draw(dicke)
    if dark.shape[1] and admixture:   # one ion has no dark states
        amp += admixture * draw(dark)
    return (amp / np.linalg.norm(amp)).ravel()


class TestBlockSearch:
    """The drive record's closure from the states above the propagator's
    weight floor, against the union of the dense oracle's exact-zero pattern
    components that hold them, in the product basis and on the Dicke states."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 4), n_max=st.integers(0, 3),
           weights=st.lists(st.one_of(st.just(0.0), st.just(1e-4), st.floats(0.0, 1.0)),
                            min_size=4, max_size=4),
           offsets_khz=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
           uniform=st.booleans(),
           comp=st.sampled_from([CompensationMode.none(), CompensationMode.zero_carrier(),
                                 CompensationMode.effective(0.6, TWO_PI * 40e3)]),
           sideband=st.sampled_from(list(Sideband)),
           entries=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           last=st.sampled_from([1.0, 1e-11]))
    # a coupling of 4e-291 is a coupling: ion 3 joins |uu..>'s block [12, 13, 14, 15]
    @example(n_qubits=4, n_max=0, weights=[0.0, 0.0, 1e-4, 8.452795513786906e-290],
             offsets_khz=[0.0] * 4, uniform=False, comp=CompensationMode.none(),
             sideband=Sideband.RED, entries=1, seed=0, last=1.0)
    def test_blocks_are_the_weighted_dense_components(self, n_qubits, n_max, weights,
                                                      offsets_khz, uniform, comp, sideband,
                                                      entries, seed, last):
        if uniform:
            weights, offsets_khz = [weights[0]] * 4, [offsets_khz[0]] * 4
        cfg = DriveConfig(space=build_space(n_qubits, n_max), eta=ETA, omega_v=OMEGA_V,
                          pulse=PulseShape(omega_peak=OMEGA_PEAK, sigma=SIGMA),
                          ion_weights=tuple(weights[:n_qubits]),
                          ion_detuning_offsets=tuple(o * TWO_PI * 1e3
                                                     for o in offsets_khz[:n_qubits]),
                          sideband=sideband, compensation=comp)
        # an entry of weight ~1e-22 alone in its component falls under the floor
        psi = sparse_state(cfg.space, entries, seed, last)
        dense = dense_terms(cfg)
        block = weighted_block(drive_terms(cfg), psi)
        assert block.tolist() == weighted_components(dense, psi).tolist()
        if uniform:
            # the propagator's one rotation: the projection onto the Dicke states
            columns = dicke_columns(n_qubits)
            t_full = np.kron(columns, np.eye(cfg.space.n_fock))
            psi_sym = t_full.T @ psi
            block = weighted_block(drive_terms(cfg).rotated(columns), psi_sym)
            rotated = [t_full.T @ s @ t_full for s in dense]
            assert block.tolist() == weighted_components(rotated, psi_sym).tolist()

    def test_a_vanishing_weight_still_couples(self):
        # the example's drive: a cut at 1e-12 of the largest entry split ion 3
        # off, leaving the blocks [12, 14] and [13, 15]
        cfg = drive_config(space=build_space(4, 0), eta=ETA, omega_v=OMEGA_V,
                           pulse=PulseShape(omega_peak=OMEGA_PEAK, sigma=SIGMA),
                           ion_weights=(0.0, 0.0, 1e-4, 8.452795513786906e-290),
                           compensation=CompensationMode.none())
        assert drive_terms(cfg).coupled([13]).tolist() == [12, 13, 14, 15]

    @pytest.mark.parametrize("weights,block_size", [((1.0, 1.0), 2), ((1.0, 0.9), 3)])
    def test_a_state_under_the_floor_stays_out(self, weights, block_size):
        # |dd,0> couples to nothing without carrier couplings; at amplitude
        # 1e-11 (weight 1e-22) it is no seed, so it neither joins the |dd,1>
        # block nor leaves exact zero
        cfg = replace(rap_drive(), ion_weights=weights)
        amplitudes = np.zeros(cfg.space.dim, dtype=complex)
        ground, start = cfg.space.index("dd", 0), cfg.space.index("dd", 1)
        amplitudes[start], amplitudes[ground] = 1.0, 1e-11
        res = evolve(cfg, StateVector(cfg.space, amplitudes))
        assert res.block_size == block_size
        assert res.final_state.amplitudes[ground] == 0.0


class TestBasisRule:
    """Identical ions evolve on the Dicke states exactly when the state's weight
    outside their span is at most ``BLOCK_WEIGHT_FLOOR``, and their block then
    holds no more states than the product basis's, which every other state
    evolves on."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(2, 4), n_max=st.integers(1, 3),
           weight=st.one_of(st.just(1e-4), st.floats(0.05, 1.0)),
           offset_khz=st.floats(-5.0, 5.0),
           comp=st.sampled_from([CompensationMode.none(), CompensationMode.zero_carrier(),
                                 CompensationMode.effective(0.6, TWO_PI * 40e3)]),
           sideband=st.sampled_from(list(Sideband)),
           start=st.sampled_from(["sparse"] + list(STARTS)),
           entries=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_symmetric_basis_never_costlier(self, n_qubits, n_max, weight, offset_khz,
                                            comp, sideband, start, entries, seed):
        cfg = DriveConfig(space=build_space(n_qubits, n_max), eta=ETA, omega_v=OMEGA_V,
                          pulse=PulseShape(omega_peak=OMEGA_PEAK, sigma=SIGMA),
                          ion_weights=(weight,) * n_qubits,
                          ion_detuning_offsets=(offset_khz * TWO_PI * 1e3,) * n_qubits,
                          sideband=sideband, compensation=comp)
        if start == "sparse":
            psi = sparse_state(cfg.space, entries, seed)
        else:
            psi = start_state(cfg.space, np.random.default_rng(seed), start)
        # random states may sit at the top Fock level; the leak guard is not under test
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagator, "LEAK_LIMIT", math.inf)
            res = evolve(cfg, StateVector(cfg.space, psi), duration=1e-9)
        product = weighted_block(drive_terms(cfg), psi)
        assert res.symmetric_basis is (dark_weight(cfg.space, psi)
                                       <= propagator.BLOCK_WEIGHT_FLOOR)
        assert res.block_size <= len(product)


class TestRandomizedEquivalence:
    """Reduced split evolve vs the dense split oracle on random drives; identical
    ions also start from states on the Dicke states, with and without a dark
    admixture on either side of the floor."""

    N_STEPS = 128

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 3),
           n_max=st.integers(1, 3),
           uniform=st.booleans(),
           weights=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                            min_size=3, max_size=3),
           offsets_khz=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
           comp=st.sampled_from([CompensationMode.none(),
                                 CompensationMode.zero_carrier(),
                                 CompensationMode.effective(0.6, TWO_PI * 40e3)]),
           sideband=st.sampled_from(list(Sideband)),
           eta=st.floats(0.02, 0.25),
           sigma_us=st.floats(4.0, 12.0),
           start=st.sampled_from(list(STARTS)),
           seed=st.integers(0, 2**32 - 1))
    def test_reduced_split_matches_dense_split(self, n_qubits, n_max, uniform, weights,
                                               offsets_khz, comp, sideband, eta,
                                               sigma_us, start, seed):
        if uniform:
            weights, offsets_khz = [weights[0]] * 3, [offsets_khz[0]] * 3
        # scaled-down frequencies keep 128 steps inside the 0.75 step guard
        pulse = PulseShape(omega_peak=TWO_PI * 10e3, sigma=sigma_us * 1e-6,
                           chirp_start=-TWO_PI * 5e3, chirp_end=TWO_PI * 5e3)
        cfg = DriveConfig(space=build_space(n_qubits, n_max), eta=eta,
                          omega_v=TWO_PI * 20e3, pulse=pulse,
                          ion_weights=tuple(weights[:n_qubits]),
                          ion_detuning_offsets=tuple(o * TWO_PI * 1e3
                                                     for o in offsets_khz[:n_qubits]),
                          sideband=sideband, compensation=comp)
        if not uniform:
            start = "random"
        rng = np.random.default_rng(seed)
        psi, phi = (StateVector(cfg.space, start_state(cfg.space, rng, start))
                    for _ in range(2))
        duration = pulse.duration
        # random states fill the top Fock level; the leak guard is not under test
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagator, "LEAK_LIMIT", math.inf)
            res = evolve(cfg, psi, dt=duration / self.N_STEPS)
            res_phi = evolve(cfg, phi, dt=duration / self.N_STEPS)
        ref = dense_split_evolve(cfg, psi, self.N_STEPS, duration)
        assert np.linalg.norm(res.final_state.amplitudes - ref) < 1e-10
        assert res.symmetric_basis is (uniform and n_qubits > 1 and dark_weight(
            cfg.space, psi.amplitudes) <= propagator.BLOCK_WEIGHT_FLOOR)
        # unitarity: norms and the inner product are preserved
        assert res.norm_drift < 1e-12 and res_phi.norm_drift < 1e-12
        assert overlap(res_phi.final_state, res.final_state) == pytest.approx(
            overlap(phi, psi), abs=1e-12)


def random_drive(n_qubits, n_max, weights, offsets_khz, kind, eta, omega_peak_khz,
                 chirp_khz, sigma_us):
    """A drive of ``kind = (sideband, compensation)`` from random draws in lab units."""
    sideband, comp = kind
    pulse = PulseShape(omega_peak=TWO_PI * 1e3 * omega_peak_khz, sigma=sigma_us * 1e-6,
                       chirp_start=TWO_PI * 1e3 * chirp_khz[0],
                       chirp_end=TWO_PI * 1e3 * chirp_khz[1])
    return DriveConfig(space=build_space(n_qubits, n_max), eta=eta, omega_v=OMEGA_V,
                       pulse=pulse, ion_weights=tuple(weights[:n_qubits]),
                       ion_detuning_offsets=tuple(o * TWO_PI * 1e3
                                                  for o in offsets_khz[:n_qubits]),
                       sideband=sideband, compensation=comp)


class TestDefaultStepConvergence:
    """The default step against one eighth of it, on random drives at the real
    frequencies from random initial states: short (sigma 4-12 us) and very
    short (1-4 us) drives of every kind with random weights, offsets and chirp
    endpoints, long sideband-only drives whose coupling sets the step, and
    long carrier-coupled sideband drives whose coupling, chirp or trap margin
    sets it.  At a fixed step, the same error stays inside the bounds as the
    trap frequency rises past the margin and is large at the aliasing
    resonance."""

    @staticmethod
    def assert_converged(cfg, seed):
        rng = np.random.default_rng(seed)
        amp = rng.normal(size=cfg.space.dim) + 1j * rng.normal(size=cfg.space.dim)
        psi0 = StateVector(cfg.space, amp / np.linalg.norm(amp))
        # random states fill the top Fock level; the leak guard is not under test
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagator, "LEAK_LIMIT", math.inf)
            coarse = evolve(cfg, psi0).final_state
            fine = evolve(cfg, psi0, dt=propagator.default_dt(cfg) / 8).final_state
        assert np.linalg.norm(coarse.amplitudes - fine.amplitudes) < 2e-4
        pops, pops_fine = psi_internal_populations(coarse), psi_internal_populations(fine)
        assert max(abs(pops[w] - pops_fine[w]) for w in pops) < 1e-5

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 3),
           n_max=st.integers(1, 3),
           weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
           offsets_khz=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
           kind=st.sampled_from(DRIVE_KINDS),
           eta=st.floats(0.02, 0.25),
           omega_peak_khz=st.floats(50.0, 300.0),
           chirp_khz=st.lists(st.floats(-200.0, 200.0), min_size=2, max_size=2),
           sigma_us=st.floats(4.0, 12.0),
           seed=st.integers(0, 2**32 - 1))
    def test_default_step_converged(self, n_qubits, n_max, weights, offsets_khz, kind,
                                    eta, omega_peak_khz, chirp_khz, sigma_us, seed):
        self.assert_converged(random_drive(n_qubits, n_max, weights, offsets_khz, kind, eta,
                                           omega_peak_khz, chirp_khz, sigma_us), seed)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 3),
           n_max=st.integers(1, 3),
           weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
           offsets_khz=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
           kind=st.sampled_from(DRIVE_KINDS),
           eta=st.floats(0.02, 0.25),
           omega_peak_khz=st.floats(50.0, 300.0),
           chirp_khz=st.lists(st.floats(-200.0, 200.0), min_size=2, max_size=2),
           sigma_us=st.floats(1.0, 4.0),
           seed=st.integers(0, 2**32 - 1))
    # the first two drives of a random scan of this strategy that the Strang
    # step at 0.04 / max_frequency left off by more than 1e-5 in populations
    @example(1, 3, [0.73, 0.14, 0.74], [11.1, 13.0, 7.0], DRIVE_KINDS[7], 0.105, 66.1,
             [7.5, 103.0], 1.57, 1612219126)
    @example(1, 3, [0.36, 0.59, 0.056], [-5.1, 18.4, -15.2], DRIVE_KINDS[5], 0.22, 213.1,
             [-82.4, 111.3], 1.87, 4022394181)
    # the worst drives of a 2000-draw scan of this strategy at the composed
    # step (populations 1.9e-6 and 1.5e-6 off, both at the 63-step floor)
    @example(1, 2, [0.94, 0.4, 0.58], [-19.7, -17.6, 9.5], DRIVE_KINDS[2], 0.0351, 230.7,
             [-118.7, 160.7], 3.964, 2202871417)
    @example(1, 1, [0.89, 0.85, 0.91], [16.9, -18.0, -11.0], DRIVE_KINDS[5], 0.238, 252.8,
             [-5.0, -54.4], 3.468, 4076017717)
    def test_short_pulse_step_converged(self, n_qubits, n_max, weights, offsets_khz, kind,
                                        eta, omega_peak_khz, chirp_khz, sigma_us, seed):
        # pulses of a few dozen to a few hundred default steps, where the
        # second-order split at its step left populations up to 2.5e-5 off
        self.assert_converged(random_drive(n_qubits, n_max, weights, offsets_khz, kind, eta,
                                           omega_peak_khz, chirp_khz, sigma_us), seed)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 3),
           n_max=st.integers(2, 3),
           weights=st.lists(st.floats(0.8, 1.0), min_size=3, max_size=3),
           offsets_khz=st.lists(st.floats(4.0, 12.0), min_size=3, max_size=3),
           signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
           sideband=st.sampled_from([Sideband.RED, Sideband.BLUE]),
           eta=st.floats(0.15, 0.25),
           omega_peak_khz=st.floats(200.0, 300.0),
           sigma_us=st.floats(60.0, 100.0),
           seed=st.integers(0, 2**32 - 1))
    def test_coupling_bound_step_converged(self, n_qubits, n_max, weights, offsets_khz,
                                           signs, sideband, eta, omega_peak_khz, sigma_us,
                                           seed):
        # Chirp-free sideband-only drives conserve n + up (red) or n - up (blue)
        # in H_F, which then commutes with the coupling, so the split would be
        # exact up to the envelope's quadrature; the ion offsets break that
        # while staying well below the coupling, which sets the step.
        pulse = PulseShape(omega_peak=TWO_PI * 1e3 * omega_peak_khz, sigma=sigma_us * 1e-6)
        offsets = tuple(TWO_PI * 1e3 * o * sign for o, sign in zip(offsets_khz, signs))
        cfg = DriveConfig(space=build_space(n_qubits, n_max), eta=eta, omega_v=OMEGA_V,
                          pulse=pulse, ion_weights=tuple(weights[:n_qubits]),
                          ion_detuning_offsets=offsets[:n_qubits], sideband=sideband,
                          compensation=CompensationMode.zero_carrier())
        frequencies = propagator._step_frequencies(cfg)
        assert max(frequencies, key=frequencies.get) == "the peak coupling"
        self.assert_converged(cfg, seed)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 3),
           n_max=st.integers(1, 2),
           weights=st.lists(st.floats(0.5, 1.0), min_size=3, max_size=3),
           offsets_khz=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
           sideband=st.sampled_from([Sideband.RED, Sideband.BLUE]),
           comp=st.sampled_from([c for c in COMPENSATIONS
                                 if c.kind is not CompensationKind.ZERO_CARRIER]),
           eta=st.floats(0.05, 0.2),
           bound=st.sampled_from(["the peak coupling", "a chirp endpoint",
                                  "the trap-period margin omega_v / 4"]),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           chirp_sign=st.sampled_from([-1.0, 1.0]),
           sigma_us=st.floats(20.0, 60.0),
           seed=st.integers(0, 2**32 - 1))
    def test_carrier_coupled_step_converged(self, n_qubits, n_max, weights, offsets_khz,
                                            sideband, comp, eta, bound, fractions,
                                            chirp_sign, sigma_us, seed):
        # Long none/effective sideband drives, whose trap frequency is only a
        # margin: total peak Rabi 20-300 kHz and chirp 0-200 kHz, drawn so that
        # the coupling, the chirp or the margin (both below its 175 kHz) sets
        # the step.
        a, b = fractions
        if bound == "the peak coupling":
            rabi_khz = 180.0 + 120.0 * a
            chirp_khz = 0.9 * rabi_khz * b
        elif bound == "a chirp endpoint":
            chirp_khz = 180.0 + 20.0 * a
            rabi_khz = 20.0 + (0.9 * chirp_khz - 20.0) * b
        else:
            rabi_khz, chirp_khz = 20.0 + 150.0 * a, 170.0 * b
        weights = tuple(weights[:n_qubits])
        chirp = TWO_PI * 1e3 * chirp_khz * chirp_sign
        pulse = PulseShape(omega_peak=TWO_PI * 1e3 * rabi_khz / sum(weights),
                           sigma=sigma_us * 1e-6, chirp_start=-chirp, chirp_end=chirp)
        cfg = DriveConfig(space=build_space(n_qubits, n_max), eta=eta, omega_v=OMEGA_V,
                          pulse=pulse, ion_weights=weights,
                          ion_detuning_offsets=tuple(o * TWO_PI * 1e3
                                                     for o in offsets_khz[:n_qubits]),
                          sideband=sideband, compensation=comp)
        frequencies = propagator._step_frequencies(cfg)
        assert max(frequencies, key=frequencies.get) == bound
        self.assert_converged(cfg, seed)

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_converged_in_trap_frequency_up_to_the_guard(self, n_qubits, monkeypatch):
        # At one fixed step, 6 x 0.1 / omega_v at 2 pi 0.7 MHz, the composed
        # step's error on a none red drive stays inside the convergence bounds
        # from omega_v dt = 0.3 up to the margin's 2.4 at the default step and
        # 3.0 at the guard, and it is large at the aliasing resonance
        # omega_v dt = 2 pi.  The guard's margin is lifted, it is not under
        # test here.
        step_frequencies = propagator._step_frequencies
        monkeypatch.setattr(propagator, "_step_frequencies", lambda cfg: {
            name: f for name, f in step_frequencies(cfg).items() if "trap" not in name})
        monkeypatch.setattr(propagator, "LEAK_LIMIT", math.inf)
        space = build_space(n_qubits, 2)
        if n_qubits == 1:
            amp = [1, 1j] @ np.random.default_rng(3).normal(size=(2, space.dim))
            psi0 = StateVector(space, amp / np.linalg.norm(amp))
        else:
            psi0 = embed(space, "dd", 1)
        dt = 0.6 / OMEGA_V
        pulse = PulseShape(omega_peak=TWO_PI * 145e3, sigma=20e-6,
                           chirp_start=-TWO_PI * 100e3, chirp_end=TWO_PI * 100e3)
        errors = []
        for phase in (0.3, 0.6, 1.2, 1.88, 2.4, 3.0, TWO_PI):
            cfg = drive_config(space=space, eta=0.1, omega_v=phase / dt, pulse=pulse,
                               compensation=CompensationMode.none())
            coarse = evolve(cfg, psi0, dt=dt).final_state
            fine = evolve(cfg, psi0, dt=dt / 8).final_state
            pops, pops_fine = psi_internal_populations(coarse), psi_internal_populations(fine)
            errors.append((np.linalg.norm(coarse.amplitudes - fine.amplitudes),
                           max(abs(pops[w] - pops_fine[w]) for w in pops)))
        (slowest, _), *converged, (resonant, _) = errors
        for state_error, population_error in [errors[0], *converged]:
            assert state_error < 2e-4 and population_error < 1e-5
        assert resonant > 100 * slowest


class TestRapOracle:
    def test_transfer_to_bright_state(self):
        # coherent-limit operating point; convergence confirmed at halved dt
        cfg = rap_drive()
        psi0 = embed(cfg.space, "dd", 1)
        target = make_dicke(2, 1, cfg.space)
        dt = 0.04 / OMEGA_V
        fid = squared_overlap(evolve(cfg, psi0, dt=dt).final_state, target)
        fid_half = squared_overlap(evolve(cfg, psi0, dt=dt / 2).final_state, target)
        assert fid >= 0.99
        assert fid == pytest.approx(fid_half, abs=1e-8)

    def test_reversed_chirp_same_fidelity(self):
        target = make_dicke(2, 1, build_space(2, 5))
        fids = []
        for sign in (+1, -1):
            cfg = rap_drive(chirp_sign=sign)
            psi0 = embed(cfg.space, "dd", 1)
            fids.append(squared_overlap(evolve(cfg, psi0).final_state, target))
        assert fids[0] == pytest.approx(fids[1], abs=1e-6)


class TestStructuralDynamics:
    def test_excitation_number_conserved(self):
        cfg = rap_drive()
        psi0 = embed(cfg.space, "dd", 1)
        n_e = excitation_number(cfg.space)
        values = [np.vdot(s.amplitudes, n_e @ s.amplitudes).real
                  for s in checkpoint_states(cfg, psi0)]
        assert np.max(np.abs(np.array(values) - 1.0)) < 1e-8

    @pytest.mark.parametrize("comp", [CompensationMode.none(),
                                      CompensationMode.zero_carrier()])
    def test_dark_state_decoupled(self, comp):
        cfg = rap_drive(comp)
        space = cfg.space
        amp = np.zeros(space.dim, dtype=complex)
        amp[space.index("du", 0)] = 1 / math.sqrt(2)
        amp[space.index("ud", 0)] = -1 / math.sqrt(2)
        dark = StateVector(space, amp)
        for s in checkpoint_states(cfg, dark):
            assert squared_overlap(dark, s) == pytest.approx(1.0, abs=1e-8)


def evolve_chain(stages, psi):
    """Apply ``stages = [(DriveConfig, duration), ...]`` in order, each at its default step."""
    for cfg, duration in stages:
        psi = evolve(cfg, psi, duration=duration).final_state
    return psi


class TestSequence:
    def test_empty_drive_stage(self):
        cfg = drive_config(space=build_space(2, 3), eta=ETA, omega_v=OMEGA_V,
                           pulse=PulseShape(omega_peak=0.0, sigma=SIGMA),
                           compensation=CompensationMode.none())
        psi0 = embed(cfg.space, "du", 1)
        res = evolve(cfg, psi0, dt=1e-8, duration=50e-6)
        assert population(res.final_state, "du", 1) == pytest.approx(1.0, abs=1e-12)

    def test_fock_preparation_pulses(self):
        # blue-sideband pi then carrier pi, both addressed to ion 1:
        # |dd,0> -> |ud,1> -> |dd,1> with analytic durations
        space = build_space(2, 4)
        flat = PulseShape.flat(OMEGA_PEAK)
        weights = (1.0, 0.0)
        bsb = drive_config(space=space, eta=ETA, omega_v=OMEGA_V, pulse=flat,
                           ion_weights=weights, sideband=Sideband.BLUE,
                           compensation=CompensationMode.zero_carrier())
        carrier = drive_config(space=space, eta=ETA, omega_v=OMEGA_V, pulse=flat,
                               ion_weights=weights, sideband=Sideband.CARRIER)
        stages = [(bsb, math.pi / (ETA * OMEGA_PEAK)), (carrier, math.pi / OMEGA_PEAK)]
        mid = evolve_chain(stages[:1], embed(space, "dd", 0))
        assert population(mid, "ud", 1) == pytest.approx(1.0, abs=1e-3)
        assert population(evolve_chain(stages[1:], mid), "dd", 1) == pytest.approx(
            1.0, abs=1e-3)

    def test_prep_plus_rap_composition(self):
        space = build_space(2, 5)
        flat = PulseShape.flat(OMEGA_PEAK)
        weights = (1.0, 0.0)
        bsb = drive_config(space=space, eta=ETA, omega_v=OMEGA_V, pulse=flat,
                           ion_weights=weights, sideband=Sideband.BLUE,
                           compensation=CompensationMode.zero_carrier())
        carrier = drive_config(space=space, eta=ETA, omega_v=OMEGA_V, pulse=flat,
                               ion_weights=weights, sideband=Sideband.CARRIER)
        rap = rap_drive()
        stages = [(bsb, math.pi / (ETA * OMEGA_PEAK)),
                  (carrier, math.pi / OMEGA_PEAK),
                  (rap, rap.pulse.duration)]
        final = evolve_chain(stages, embed(space, "dd", 0))
        assert squared_overlap(final, make_dicke(2, 1, space)) >= 0.98
