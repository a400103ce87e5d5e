"""Fock-split propagation: analytic oracles, dense oracles and structure checks.

Two dense full-space oracles run without any reduction: ``brute_force_evolve``
applies the exact exponential of the midpoint Hamiltonian (the accuracy
reference the split is pinned against), and ``dense_split_evolve`` applies the
same Fock-number Strang split as ``evolve`` (the equivalence reference for
the block and symmetric-basis reductions).  ``sequential_chunk`` forms a
chunk's step unitaries ``Q Q^T`` from their factors and applies them one
matrix-vector product at a time (the reference for the chunk kernel).
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import (CompensationMode, DriveConfig, ExperimentConfig, NumericsError,
                      PulseShape, Sideband, StateVector, StepSizeError,
                      TruncationLeakError, build_space, embed, evolve, make_dicke,
                      prepare_fock1, propagate_sequence)
from dickesim import propagator
from dickesim.drive import TWO_PI, drive_terms, hamiltonian_matrix
from oracles import excitation_number

OMEGA_PEAK = TWO_PI * 145e3
SIGMA = 122e-6
OMEGA_V = TWO_PI * 0.7e6
ETA = 0.082


def rap_drive(compensation=CompensationMode.zero_carrier(), chirp_sign=1,
              omega_peak=OMEGA_PEAK, sigma=SIGMA, n_max=5):
    chirp = TWO_PI * 100e3 * chirp_sign
    pulse = PulseShape(omega_peak=omega_peak, sigma=sigma,
                       chirp_start=-chirp, chirp_end=+chirp)
    return DriveConfig(space=build_space(2, n_max), eta=ETA, omega_v=OMEGA_V,
                       pulse=pulse, sideband=Sideband.RED,
                       compensation=compensation)


def brute_force_evolve(cfg, psi0, n_steps, duration):
    """Reference propagator: same midpoint rule, dense full space, no reductions."""
    dt = duration / n_steps
    psi = psi0.amplitudes.astype(complex)
    for k in range(n_steps):
        h = hamiltonian_matrix(cfg, (k + 0.5) * dt)
        w, v = np.linalg.eigh(h)
        psi = (v * np.exp(-1j * w * dt)) @ (v.conj().T @ psi)
    return psi


def dense_split_evolve(cfg, psi0, n_steps, duration):
    """Reference Fock split, dense full space, no reductions.

    Each midpoint step applies ``A B A`` with ``A = exp(-i H_F dt/2)`` for the
    Fock-number-preserving entries of H and ``B = exp(-i H_R dt)`` for the
    rest, both through a dense eigendecomposition.
    """
    fock = np.arange(cfg.space.dim) % cfg.space.n_fock
    same = fock[:, None] == fock[None, :]
    dt = duration / n_steps
    psi = psi0.amplitudes.astype(complex)
    for k in range(n_steps):
        h = hamiltonian_matrix(cfg, (k + 0.5) * dt)
        wf, vf = np.linalg.eigh(np.where(same, h, 0.0))
        wr, vr = np.linalg.eigh(np.where(same, 0.0, h))
        a = (vf * np.exp(-0.5j * wf * dt)) @ vf.T
        psi = a @ ((vr * np.exp(-1j * wr * dt)) @ (vr.T @ (a @ psi)))
    return psi


def sequential_chunk(q, psi, work=None):
    """Reference chunk kernel: the state after every step, one matvec per step."""
    unitaries = q @ q.transpose(0, 2, 1)
    states = np.empty(q.shape[:2], dtype=complex)
    for u, out in zip(unitaries, states):
        psi = np.dot(u, psi, out=out)
    return states


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
    return DriveConfig(space=build_space(2, 3), eta=0.1, omega_v=TWO_PI * 20e3,
                       pulse=pulse, compensation=CompensationMode.zero_carrier())


def rabi_cycle_drive():
    """One ion on the blue sideband: ``|d,1> -> |u,2> -> |d,1>`` over ``t_cycle``.

    The block ``{|d,1>, |u,2>}`` has two states and its population sits at
    ``n_max = 2`` mid-cycle.
    """
    eta = 0.25
    cfg = DriveConfig(space=build_space(1, 2), eta=eta, omega_v=TWO_PI * 0.2e6,
                      pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE,
                      compensation=CompensationMode.zero_carrier())
    return cfg, 2 * math.pi / (eta * OMEGA_PEAK * math.sqrt(2))


class TestFreeEvolution:
    def test_zero_drive_keeps_populations(self):
        cfg = DriveConfig(space=build_space(2, 5), eta=ETA, omega_v=OMEGA_V,
                          pulse=PulseShape(omega_peak=0.0, sigma=SIGMA),
                          compensation=CompensationMode.none())
        psi0 = embed(cfg.space, "dd", 1)
        res = evolve(cfg, psi0, dt=1e-8)
        # diagonal H: phase only (up to per-step round-off, bounded by the
        # norm-drift invariant); |dd,1> has no up ions, so the accumulated
        # phase is exp(-i omega_v T) regardless of the detuning
        assert res.final_state.population("dd", 1) == pytest.approx(1.0, abs=1e-9)
        phase = res.final_state.amplitudes[cfg.space.index("dd", 1)]
        expected = np.exp(-1j * OMEGA_V * cfg.pulse.duration)
        assert phase == pytest.approx(expected, abs=1e-6)
        assert res.norm_drift < 1e-9


class TestAnalyticPiPulse:
    def test_blue_sideband_rabi_transfer(self):
        # two-level oracle: P_transfer(t) = sin^2(eta Omega t / 2)
        space = build_space(1, 3)
        cfg = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V,
                          pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE,
                          compensation=CompensationMode.zero_carrier())
        t_pi = math.pi / (ETA * OMEGA_PEAK)
        psi0 = embed(space, "d", 0)
        for frac in (0.25, 0.5, 1.0):
            res = evolve(cfg, psi0, duration=frac * t_pi)
            expected = math.sin(frac * math.pi / 2) ** 2
            assert res.final_state.population("u", 1) == pytest.approx(
                expected, abs=1e-3)
        res = evolve(cfg, psi0, duration=t_pi)
        assert res.final_state.population("u", 1) == pytest.approx(1.0, abs=1e-3)


class TestGuards:
    def test_step_size_guard(self):
        cfg = rap_drive()
        with pytest.raises(StepSizeError):
            evolve(cfg, embed(cfg.space, "dd", 1), dt=1e-6)

    def test_truncation_leak(self):
        space = build_space(1, 2)
        cfg = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V,
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
        cfg = DriveConfig(space=space, eta=eta, omega_v=TWO_PI * 0.2e6,
                          pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE,
                          compensation=CompensationMode.zero_carrier())
        t_cycle = 2 * math.pi / (eta * OMEGA_PEAK * math.sqrt(2))
        dt = t_cycle / 1000
        assert math.ceil(t_cycle / dt) <= propagator.CHUNK_STEPS
        with pytest.raises(TruncationLeakError, match="at t = "):
            evolve(cfg, embed(space, "d", 1), dt=dt, duration=t_cycle)

    @pytest.mark.parametrize("term,a,b,match", [
        (0, ("dd", 0), ("dd", 1), "changes the Fock number"),
        (1, ("uu", 2), ("uu", 2), "Fock level 2"),
    ])
    def test_split_checks_factorisation(self, monkeypatch, term, a, b, match):
        # an S0 entry between Fock levels, or an S1 that depends on the Fock
        # level, breaks H_F = omega_v n + H_int(t); the split must refuse it
        cfg = rap_drive(CompensationMode.none(), n_max=3)
        terms = [s.copy() for s in drive_terms(cfg)]
        i, j = cfg.space.index(*a), cfg.space.index(*b)
        terms[term][i, j] += 0.5
        terms[term][j, i] = terms[term][i, j]
        monkeypatch.setattr(propagator, "drive_terms", lambda _: tuple(terms))
        with pytest.raises(NumericsError, match=match):
            evolve(cfg, embed(cfg.space, "dd", 1))

    def test_flat_pulse_needs_duration(self):
        space = build_space(1, 2)
        cfg = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V,
                          pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE)
        with pytest.raises(ValueError):
            evolve(cfg, embed(space, "d", 0))


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

    def test_second_order_convergence(self):
        # scaled-down frequencies so coarse steps pass the dt guard
        space = build_space(2, 3)
        pulse = PulseShape(omega_peak=TWO_PI * 10e3, sigma=SIGMA,
                           chirp_start=-TWO_PI * 5e3, chirp_end=TWO_PI * 5e3)
        cfg = DriveConfig(space=space, eta=0.1, omega_v=TWO_PI * 20e3, pulse=pulse,
                          compensation=CompensationMode.none())
        psi0 = embed(space, "dd", 1)
        duration = pulse.duration

        def final(n):
            return evolve(cfg, psi0, dt=duration / n).final_state.amplitudes

        ref = final(2**16)
        err_coarse = np.linalg.norm(final(2**11) - ref)
        err_fine = np.linalg.norm(final(2**12) - ref)
        assert err_coarse > 1e-10   # measurable, not machine noise
        assert 3.0 < err_coarse / err_fine < 5.2


REDUCTION_CONFIGS = [
    (CompensationMode.zero_carrier(), ()),
    (CompensationMode.none(), ()),
    (CompensationMode.effective(0.6, TWO_PI * 400e3), ()),
    (CompensationMode.none(), (1.0, 0.7)),
    # a weakly driven ion: its sideband entry (w eta / 2 ~ 4e-6) sits far
    # below 1e-12 of omega_v n_max but must still couple |dd,1> to |du,0>
    (CompensationMode.zero_carrier(), (1.0, 1e-4)),
]


def short_rap_drive(comp, weights):
    return DriveConfig(space=build_space(2, 3), eta=ETA, omega_v=OMEGA_V,
                       pulse=PulseShape(omega_peak=OMEGA_PEAK, sigma=20e-6,
                                        chirp_start=-TWO_PI * 100e3,
                                        chirp_end=TWO_PI * 100e3),
                       ion_weights=weights, compensation=comp)


class TestAgainstBruteForce:
    N_STEPS = 16384

    @pytest.mark.parametrize("comp,weights", REDUCTION_CONFIGS)
    def test_block_reductions_change_nothing(self, comp, weights):
        cfg = short_rap_drive(comp, weights)
        psi0 = embed(cfg.space, "dd", 1)
        duration = cfg.pulse.duration
        res = evolve(cfg, psi0, dt=duration / self.N_STEPS)
        ref = dense_split_evolve(cfg, psi0, self.N_STEPS, duration)
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
        cfg = DriveConfig(space=build_space(4, 5), eta=ETA, omega_v=OMEGA_V,
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
        res = evolve(cfg, psi0, dt=dt, sample_every=97)
        monkeypatch.setattr(propagator, "_run_chunk", sequential_chunk)
        ref = evolve(cfg, psi0, dt=dt, sample_every=97)
        assert res.block_sizes == (2,) and res.steps == n_steps
        assert [t for t, _ in res.trajectory] == [t for t, _ in ref.trajectory]
        gap = max(np.abs(a.amplitudes - b.amplitudes).max()
                  for (_, a), (_, b) in zip(res.trajectory, ref.trajectory))
        assert gap < 1e-12
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
            assert res.block_sizes == (2,)
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
            dt = cfg.dt_for(drive)
        chunk = min(propagator.CHUNK_STEPS, propagator.CHUNK_ENTRIES // block**2)
        faults = []
        for n_chunks in (2, 20):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            res = evolve(drive, psi0, dt=dt, duration=n_chunks * chunk * dt)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert res.block_sizes == (block,)
        assert faults[1] - faults[0] < 18 * 25


class TestDiagnostics:
    @pytest.mark.parametrize("kwargs,block_sizes,symmetric", [
        # a sweep point: the scan path
        ({}, (2,), True),
        # the carrier-coupled block: one matvec per step
        ({"compensation": CompensationMode.none()}, (18,), True),
        # unequal ions stay in the product basis
        ({"ion_weights": (1.0, 0.9)}, (3,), False),
    ])
    def test_representation_and_steps(self, kwargs, block_sizes, symmetric):
        cfg = ExperimentConfig(**kwargs)
        drive = cfg.rap_drive()
        duration = 2e-6       # the blocks do not depend on how long the pulse runs
        res = evolve(drive, prepare_fock1(cfg), dt=cfg.dt_for(drive), duration=duration)
        assert res.block_sizes == block_sizes
        assert res.symmetric_basis is symmetric
        assert res.steps == math.ceil(duration / cfg.dt_for(drive))
        assert res.dt == pytest.approx(duration / res.steps, rel=1e-15)

    def test_peak_leak_and_its_time(self, monkeypatch):
        # all population reaches n_max half way through the cycle
        cfg, t_cycle = rabi_cycle_drive()
        psi0 = embed(cfg.space, "d", 1)
        dt = t_cycle / 2000
        monkeypatch.setattr(propagator, "LEAK_LIMIT", math.inf)
        res = evolve(cfg, psi0, dt=dt, duration=t_cycle)
        assert res.peak_leak == pytest.approx(1.0, abs=1e-5)
        assert res.peak_leak_time == pytest.approx(t_cycle / 2, abs=dt)
        # a sequence counts steps over its stages and times from its start
        idle = DriveConfig(space=cfg.space, eta=cfg.eta, omega_v=cfg.omega_v,
                           pulse=PulseShape(omega_peak=0.0, sigma=SIGMA),
                           compensation=CompensationMode.none())
        seq = propagate_sequence([(idle, 1e-6), (cfg, t_cycle)], psi0, dt=dt)
        assert seq.steps == math.ceil(1e-6 / dt) + res.steps
        assert seq.peak_leak == pytest.approx(res.peak_leak, abs=1e-12)
        assert seq.peak_leak_time == pytest.approx(1e-6 + res.peak_leak_time, rel=1e-12)
        assert seq.dt is None and seq.block_sizes is None and seq.symmetric_basis is None


class TestRandomizedEquivalence:
    """Reduced split evolve vs the dense split oracle on random drives."""

    N_STEPS = 256

    @settings(max_examples=50, deadline=None, derandomize=True)
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
           seed=st.integers(0, 2**32 - 1))
    def test_reduced_split_matches_dense_split(self, n_qubits, n_max, uniform, weights,
                                               offsets_khz, comp, sideband, eta,
                                               sigma_us, seed):
        if uniform:
            weights, offsets_khz = [weights[0]] * 3, [offsets_khz[0]] * 3
        # scaled-down frequencies keep 256 steps inside the 0.05 step guard
        pulse = PulseShape(omega_peak=TWO_PI * 10e3, sigma=sigma_us * 1e-6,
                           chirp_start=-TWO_PI * 5e3, chirp_end=TWO_PI * 5e3)
        cfg = DriveConfig(space=build_space(n_qubits, n_max), eta=eta,
                          omega_v=TWO_PI * 20e3, pulse=pulse,
                          ion_weights=tuple(weights[:n_qubits]),
                          ion_detuning_offsets=tuple(o * TWO_PI * 1e3
                                                     for o in offsets_khz[:n_qubits]),
                          sideband=sideband, compensation=comp)
        rng = np.random.default_rng(seed)
        pair = rng.normal(size=(2, cfg.space.dim)) + 1j * rng.normal(size=(2, cfg.space.dim))
        psi, phi = (StateVector(cfg.space, v / np.linalg.norm(v)) for v in pair)
        duration = pulse.duration
        # random states fill the top Fock level; the leak guard is not under test
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagator, "LEAK_LIMIT", math.inf)
            res = evolve(cfg, psi, dt=duration / self.N_STEPS)
            res_phi = evolve(cfg, phi, dt=duration / self.N_STEPS)
        ref = dense_split_evolve(cfg, psi, self.N_STEPS, duration)
        assert np.linalg.norm(res.final_state.amplitudes - ref) < 1e-10
        # unitarity: norms and the inner product are preserved
        assert res.norm_drift < 1e-12 and res_phi.norm_drift < 1e-12
        assert res_phi.final_state.overlap(res.final_state) == pytest.approx(
            phi.overlap(psi), abs=1e-12)


class TestRapOracle:
    def test_transfer_to_bright_state(self):
        # coherent-limit operating point; convergence confirmed at halved dt
        cfg = rap_drive()
        psi0 = embed(cfg.space, "dd", 1)
        target = make_dicke(2, 1, cfg.space)
        dt = 0.04 / OMEGA_V
        fid = evolve(cfg, psi0, dt=dt).final_state.squared_overlap(target)
        fid_half = evolve(cfg, psi0, dt=dt / 2).final_state.squared_overlap(target)
        assert fid >= 0.99
        assert fid == pytest.approx(fid_half, abs=1e-8)

    def test_reversed_chirp_same_fidelity(self):
        target = make_dicke(2, 1, build_space(2, 5))
        fids = []
        for sign in (+1, -1):
            cfg = rap_drive(chirp_sign=sign)
            psi0 = embed(cfg.space, "dd", 1)
            fids.append(evolve(cfg, psi0).final_state.squared_overlap(target))
        assert fids[0] == pytest.approx(fids[1], abs=1e-6)


class TestStructuralDynamics:
    def test_excitation_number_conserved(self):
        cfg = rap_drive()
        psi0 = embed(cfg.space, "dd", 1)
        res = evolve(cfg, psi0, sample_every=2000)
        n_e = excitation_number(cfg.space)
        values = [np.vdot(s.amplitudes, n_e @ s.amplitudes).real
                  for _, s in res.trajectory]
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
        res = evolve(cfg, dark, sample_every=5000)
        for _, s in res.trajectory:
            assert dark.squared_overlap(s) == pytest.approx(1.0, abs=1e-8)


class TestSequence:
    def test_empty_drive_stage(self):
        cfg = DriveConfig(space=build_space(2, 3), eta=ETA, omega_v=OMEGA_V,
                          pulse=PulseShape(omega_peak=0.0, sigma=SIGMA),
                          compensation=CompensationMode.none())
        psi0 = embed(cfg.space, "du", 1)
        res = propagate_sequence([(cfg, 50e-6)], psi0, dt=1e-8)
        assert res.final_state.population("du", 1) == pytest.approx(1.0, abs=1e-12)

    def test_fock_preparation_pulses(self):
        # blue-sideband pi then carrier pi, both addressed to ion 1:
        # |dd,0> -> |ud,1> -> |dd,1> with analytic durations
        space = build_space(2, 4)
        flat = PulseShape.flat(OMEGA_PEAK)
        weights = (1.0, 0.0)
        bsb = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V, pulse=flat,
                          ion_weights=weights, sideband=Sideband.BLUE,
                          compensation=CompensationMode.zero_carrier())
        carrier = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V, pulse=flat,
                              ion_weights=weights, sideband=Sideband.CARRIER)
        stages = [(bsb, math.pi / (ETA * OMEGA_PEAK)), (carrier, math.pi / OMEGA_PEAK)]
        psi0 = embed(space, "dd", 0)
        mid = propagate_sequence(stages[:1], psi0)
        assert mid.final_state.population("ud", 1) == pytest.approx(1.0, abs=1e-3)
        res = propagate_sequence(stages, psi0)
        assert res.final_state.population("dd", 1) == pytest.approx(1.0, abs=1e-3)

    def test_prep_plus_rap_composition(self):
        space = build_space(2, 5)
        flat = PulseShape.flat(OMEGA_PEAK)
        weights = (1.0, 0.0)
        bsb = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V, pulse=flat,
                          ion_weights=weights, sideband=Sideband.BLUE,
                          compensation=CompensationMode.zero_carrier())
        carrier = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V, pulse=flat,
                              ion_weights=weights, sideband=Sideband.CARRIER)
        rap = rap_drive()
        stages = [(bsb, math.pi / (ETA * OMEGA_PEAK)),
                  (carrier, math.pi / OMEGA_PEAK),
                  (rap, rap.pulse.duration)]
        res = propagate_sequence(stages, embed(space, "dd", 0))
        target = make_dicke(2, 1, space)
        assert res.final_state.squared_overlap(target) >= 0.98

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ValueError):
            propagate_sequence([], embed(build_space(1, 1), "d", 0))
