"""Pulse envelope, chirp, rotating-frame Hamiltonian, compensation modes."""

import math

import numpy as np
import pytest

from dickesim import (CompensationMode, DriveConfig, PulseShape, Sideband,
                      build_space, derive_eta, detuning, envelope, make_dicke)
from dickesim.drive import TWO_PI, hamiltonian_matrix
from dickesim.spectral import reduced_model, spectrum_with_refinement
from oracles import excitation_number, swap_operator

OMEGA_PEAK = TWO_PI * 145e3
SIGMA = 122e-6
OMEGA_V = TWO_PI * 0.7e6
ETA = 0.082


def operating_pulse(omega_peak=OMEGA_PEAK, sigma=SIGMA, chirp=TWO_PI * 100e3):
    return PulseShape(omega_peak=omega_peak, sigma=sigma,
                      chirp_start=-chirp, chirp_end=+chirp)


def operating_drive(compensation=CompensationMode.zero_carrier(), weights=(),
                offsets=(), sideband=Sideband.RED, n_max=5):
    return DriveConfig(space=build_space(2, n_max), eta=ETA, omega_v=OMEGA_V,
                       pulse=operating_pulse(), ion_weights=weights,
                       ion_detuning_offsets=offsets, sideband=sideband,
                       compensation=compensation)


class TestEnvelope:
    def test_peak_at_center(self):
        p = operating_pulse()
        assert envelope(p, p.duration / 2) == OMEGA_PEAK

    def test_one_sigma_points(self):
        p = operating_pulse()
        for t in (p.duration / 2 - SIGMA, p.duration / 2 + SIGMA):
            assert envelope(p, t) == pytest.approx(OMEGA_PEAK * math.exp(-0.5), rel=1e-12)

    def test_duration_factor(self):
        # 2 sigma = 244 us and a 2.36 duration factor give 575.84 us
        p = operating_pulse()
        assert p.duration == pytest.approx(2.36 * 244e-6, rel=1e-12)

    def test_clamps_outside_window(self):
        p = operating_pulse()
        assert envelope(p, -1e-6) == 0.0
        assert envelope(p, p.duration + 1e-6) == 0.0

    def test_flat_pulse(self):
        p = PulseShape.flat(OMEGA_PEAK)
        assert envelope(p, 0.0) == OMEGA_PEAK
        assert envelope(p, 1.0) == OMEGA_PEAK


class TestDetuning:
    def test_endpoints_and_midpoint(self):
        p = operating_pulse()
        assert detuning(p, 0.0) == pytest.approx(-TWO_PI * 100e3)
        assert detuning(p, p.duration) == pytest.approx(+TWO_PI * 100e3)
        assert detuning(p, p.duration / 2) == pytest.approx(0.0, abs=1e-6)

    def test_linearity(self):
        p = operating_pulse()
        t = np.linspace(0, p.duration, 7)
        d = detuning(p, t)
        assert np.allclose(np.diff(d, 2), 0.0, atol=1e-3)


class TestHamiltonian:
    def test_zero_drive_is_diagonal(self):
        cfg = operating_drive()
        drive = DriveConfig(space=cfg.space, eta=ETA, omega_v=OMEGA_V,
                            pulse=PulseShape(omega_peak=0.0, sigma=SIGMA,
                                             chirp_start=-TWO_PI * 40e3,
                                             chirp_end=-TWO_PI * 40e3),
                            sideband=Sideband.RED,
                            compensation=CompensationMode.none())
        t = drive.pulse.duration * 0.3
        h = hamiltonian_matrix(drive, t)
        assert np.allclose(h, np.diag(np.diag(h)))
        delta_c = detuning(drive.pulse, t) - OMEGA_V
        for i in range(drive.space.dim):
            b = drive.space.basis_state(i)
            expected = -delta_c * b.n_up + OMEGA_V * b.fock_n
            assert h[i, i] == pytest.approx(expected, rel=1e-12)

    def test_bright_state_coupling_at_center(self):
        # <dd,1|H|D,0> = sqrt(2) eta Omega_peak / 2 with the carrier dropped
        cfg = operating_drive(CompensationMode.zero_carrier())
        h = hamiltonian_matrix(cfg, cfg.pulse.duration / 2)
        dd1 = np.zeros(cfg.space.dim)
        dd1[cfg.space.index("dd", 1)] = 1.0
        d0 = make_dicke(2, 1, cfg.space).amplitudes
        elem = dd1 @ h @ d0
        assert elem == pytest.approx(np.sqrt(2) * ETA * OMEGA_PEAK / 2, rel=1e-12)

    def test_single_ion_red_sideband_element(self):
        space = build_space(1, 3)
        cfg = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V, pulse=operating_pulse(),
                          sideband=Sideband.RED,
                          compensation=CompensationMode.zero_carrier())
        t = 0.37 * cfg.pulse.duration
        h = hamiltonian_matrix(cfg, t)
        elem = h[space.index("u", 0), space.index("d", 1)]
        assert elem == pytest.approx(ETA * envelope(cfg.pulse, t) / 2, rel=1e-12)

    def test_blue_sideband_selects_raising(self):
        space = build_space(1, 3)
        cfg = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V,
                          pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.BLUE,
                          compensation=CompensationMode.zero_carrier())
        h = hamiltonian_matrix(cfg, 0.0)
        assert h[space.index("u", 1), space.index("d", 0)] == pytest.approx(
            ETA * OMEGA_PEAK / 2)
        assert h[space.index("u", 0), space.index("d", 1)] == 0.0

    def test_carrier_mode_flips_without_motion(self):
        space = build_space(1, 2)
        cfg = DriveConfig(space=space, eta=ETA, omega_v=OMEGA_V,
                          pulse=PulseShape.flat(OMEGA_PEAK), sideband=Sideband.CARRIER)
        h = hamiltonian_matrix(cfg, 0.0)
        assert h[space.index("u", 1), space.index("d", 1)] == pytest.approx(OMEGA_PEAK / 2)
        assert h[space.index("u", 1), space.index("d", 0)] == 0.0

    def test_per_ion_weights_and_offsets(self):
        cfg = operating_drive(CompensationMode.zero_carrier(), weights=(1.0, 0.5),
                          offsets=(0.0, TWO_PI * 10e3))
        t = cfg.pulse.duration / 2
        h = hamiltonian_matrix(cfg, t)
        space = cfg.space
        e_ud1 = h[space.index("ud", 0), space.index("dd", 1)]
        e_du1 = h[space.index("du", 0), space.index("dd", 1)]
        assert e_ud1 == pytest.approx(1.0 * ETA * OMEGA_PEAK / 2)   # ion 1
        assert e_du1 == pytest.approx(0.5 * ETA * OMEGA_PEAK / 2)   # ion 2
        # the offset moves only the second ion's up level
        shift = h[space.index("du", 0), space.index("du", 0)] - \
            h[space.index("ud", 0), space.index("ud", 0)]
        assert shift == pytest.approx(-TWO_PI * 10e3, rel=1e-12)


class TestDeriveEta:
    def test_reference_point(self):
        # desk evaluation of k cos(theta) sqrt(hbar / (2 N m omega)) with
        # hbar = 1.054571817e-34, m = 40 * 1.66053906660e-27 kg
        eta = derive_eta(729e-9, 40.0, TWO_PI * 0.7e6, 2, 0.0)
        k = TWO_PI / 729e-9
        x0 = math.sqrt(1.054571817e-34 / (2 * 2 * 40 * 1.66053906660e-27 * TWO_PI * 0.7e6))
        assert eta == pytest.approx(k * x0, rel=1e-12)
        assert eta == pytest.approx(0.082, abs=5e-4)

    def test_perpendicular_beam(self):
        assert derive_eta(729e-9, 40.0, TWO_PI * 0.7e6, 2, math.pi / 2) == pytest.approx(
            0.0, abs=1e-12)

    def test_sqrt_scaling_with_trap_frequency(self):
        e1 = derive_eta(729e-9, 40.0, TWO_PI * 0.7e6, 2)
        e2 = derive_eta(729e-9, 40.0, TWO_PI * 1.4e6, 2)
        assert e2 == pytest.approx(e1 / math.sqrt(2), rel=1e-12)


class TestStructuralInvariants:
    def test_hermiticity_over_random_configs(self):
        rng = np.random.default_rng(7)
        sidebands = list(Sideband)
        comps = [CompensationMode.none(), CompensationMode.zero_carrier(),
                 CompensationMode.effective(0.5, TWO_PI * 300e3)]
        for _ in range(1000):
            n_q = int(rng.integers(1, 4))
            n_m = int(rng.integers(1, 4))
            space = build_space(n_q, n_m)
            pulse = PulseShape(
                omega_peak=float(rng.uniform(1e3, 5e6)),
                sigma=float(rng.uniform(1e-6, 1e-3)),
                duration_factor=float(rng.uniform(0.5, 4.0)),
                chirp_start=float(rng.uniform(-1e6, 1e6)),
                chirp_end=float(rng.uniform(-1e6, 1e6)),
            )
            cfg = DriveConfig(
                space=space, eta=float(rng.uniform(0.01, 0.29)),
                omega_v=float(rng.uniform(1e5, 1e7)), pulse=pulse,
                ion_weights=tuple(rng.uniform(0, 1, n_q)),
                ion_detuning_offsets=tuple(rng.uniform(-1e5, 1e5, n_q)),
                sideband=sidebands[int(rng.integers(3))],
                compensation=comps[int(rng.integers(3))],
            )
            t = float(rng.uniform(0, pulse.duration))
            h = hamiltonian_matrix(cfg, t)
            scale = max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12 * scale

    def test_excitation_number_conserved_zero_carrier(self):
        cfg = operating_drive(CompensationMode.zero_carrier())
        n_e = excitation_number(cfg.space)
        for t in np.linspace(0, cfg.pulse.duration, 7):
            h = hamiltonian_matrix(cfg, t)
            comm = h @ n_e - n_e @ h
            assert np.max(np.abs(comm)) < 1e-12 * max(1.0, np.max(np.abs(h)))

    def test_swap_symmetry_with_equal_weights(self):
        cfg = operating_drive(CompensationMode.none())
        swap = swap_operator(cfg.space)
        for t in np.linspace(0, cfg.pulse.duration, 5):
            h = hamiltonian_matrix(cfg, t)
            comm = h @ swap - swap @ h
            assert np.max(np.abs(comm)) < 1e-12 * max(1.0, np.max(np.abs(h)))

    def test_swap_symmetry_broken_by_unequal_weights(self):
        cfg = operating_drive(CompensationMode.none(), weights=(1.0, 0.5))
        swap = swap_operator(cfg.space)
        h = hamiltonian_matrix(cfg, cfg.pulse.duration / 2)
        assert np.max(np.abs(h @ swap - swap @ h)) > 1e3

    def test_effective_compensation_matches_zero_carrier_gap(self):
        # a counter-shift power_ratio Omega^2 / (4 comp_detuning) tuned to the
        # second-order carrier shift Omega^2 / (2 omega_v) reproduces the
        # idealized branch gap within 2 percent
        comp = CompensationMode.effective(power_ratio=0.6,
                                          comp_detuning=0.3 * OMEGA_V)
        gaps = {}
        for name, mode in (("eff", comp), ("zc", CompensationMode.zero_carrier())):
            model = reduced_model(operating_drive(mode))
            frame = spectrum_with_refinement(model.h_at, 0.0,
                                             model.drive.pulse.duration, 1001,
                                             basis_labels=list(model.labels))
            v0 = frame.vectors[0]
            b_dd1 = int(np.argmax(np.abs(v0[1])))
            b_d0 = int(np.argmax(np.abs(v0[2])))
            gaps[name] = np.abs(frame.energies[:, b_d0] - frame.energies[:, b_dd1])
        scale = float(np.max(gaps["zc"]))
        assert np.max(np.abs(gaps["eff"] - gaps["zc"])) <= 0.02 * scale


class TestValidation:
    def test_eta_window(self):
        with pytest.raises(ValueError):
            DriveConfig(space=build_space(2, 2), eta=0.5, omega_v=OMEGA_V,
                        pulse=operating_pulse())

    def test_weight_length(self):
        with pytest.raises(ValueError):
            DriveConfig(space=build_space(2, 2), eta=ETA, omega_v=OMEGA_V,
                        pulse=operating_pulse(), ion_weights=(1.0,))

    def test_weight_range(self):
        with pytest.raises(ValueError):
            DriveConfig(space=build_space(2, 2), eta=ETA, omega_v=OMEGA_V,
                        pulse=operating_pulse(), ion_weights=(1.0, 1.5))

    def test_effective_mode_validation(self):
        with pytest.raises(ValueError):
            CompensationMode.effective(power_ratio=0.0)
        with pytest.raises(ValueError):
            CompensationMode.effective(comp_detuning=0.0)
