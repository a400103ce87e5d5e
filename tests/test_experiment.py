"""Preparation, entangling runs, sweeps, potentials reports, thermal knob."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dickesim import (CompensationMode, ExperimentConfig, NumericsError,
                      PrepMode, make_dicke, potentials_report, prepare_fock1,
                      run_rap, sweep, truncation_overlap)
from dickesim import experiment, measurement
from dickesim.drive import TWO_PI
from dickesim.experiment import default_sweep_values
from oracles import count_local_minima, psi_dicke_fidelity, psi_internal_populations


def zc_config(**kwargs):
    return ExperimentConfig(**kwargs)


def none_config(**kwargs):
    return ExperimentConfig(compensation=CompensationMode.none(), **kwargs)


class TestPrepareFock1:
    def test_ideal(self):
        psi = prepare_fock1(zc_config())
        assert psi.population("dd", 1) == 1.0

    def test_simulated_perfect_addressing(self):
        cfg = zc_config(prep=PrepMode.SIMULATED_PULSES)
        psi = prepare_fock1(cfg)
        assert psi.population("dd", 1) >= 0.999

    def test_simulated_crosstalk_leakage(self):
        cfg = zc_config(prep=PrepMode.SIMULATED_PULSES, prep_weights=(1.0, 0.1))
        psi = prepare_fock1(cfg)
        leak = 1.0 - psi.population("dd", 1)
        # two pi/2-scaled crosstalk rotations, each about sin^2(0.1 pi/2)
        assert 0.01 < leak < 0.12

    def test_addressing_offset_suppresses_crosstalk(self):
        weak = zc_config(prep=PrepMode.SIMULATED_PULSES, prep_weights=(1.0, 0.1))
        detuned = replace(weak, prep_detuning_offsets=(0.0, TWO_PI * 100e3))
        leak_weak = 1.0 - prepare_fock1(weak).population("dd", 1)
        leak_detuned = 1.0 - prepare_fock1(detuned).population("dd", 1)
        assert leak_detuned < leak_weak


class TestRunRap:
    def test_operating_point_fidelity(self):
        res = run_rap(zc_config())
        assert res.fidelity >= 0.99
        assert res.evolution.norm_drift < 1e-9
        assert res.bound.value < 0.05

    def test_decomposition_matches_rho(self):
        res = run_rap(zc_config())
        m = res.rho.matrix
        diag = float(np.real(m[1, 1] + m[2, 2]))
        off = float(2 * np.real(m[1, 2]))
        assert res.fidelity == pytest.approx(diag / 2 + off / 2, abs=1e-12)

    def test_no_drive_no_transfer(self):
        cfg = zc_config(omega_peak=TWO_PI * 1.0)   # negligible drive
        res = run_rap(cfg)
        assert res.fidelity == pytest.approx(0.0, abs=1e-3)
        assert res.populations["dd"] == pytest.approx(1.0, abs=1e-3)
        # the crossing is unresolvably sharp: no meaningful adiabatic bound
        assert res.bound is None

    def test_simulated_prep_pipeline(self):
        res = run_rap(zc_config(prep=PrepMode.SIMULATED_PULSES))
        assert res.fidelity >= 0.99

    def test_thermal_average_is_linear(self):
        warm = run_rap(zc_config(nbar=0.06))
        cold = run_rap(zc_config())
        assert warm.fidelity < cold.fidelity
        # manual mixture over the kept Fock components (tail below 1e-4,
        # preparation shifts each component up by one quantum)
        weights = [(n, 0.06**n / 1.06 ** (n + 1)) for n in range(4)]
        total = sum(w for _, w in weights)
        manual = 0.0
        for n, w in weights:
            cfg_n = zc_config()
            space = cfg_n.space()
            from dickesim import embed, evolve
            res_n = evolve(cfg_n.rap_drive(), embed(space, "dd", n + 1),
                           dt=cfg_n.dt_for(cfg_n.rap_drive()))
            manual += (w / total) * psi_dicke_fidelity(res_n.final_state)
        assert warm.fidelity == pytest.approx(manual, abs=1e-9)

    def test_one_density_matrix_per_call(self, monkeypatch):
        # the thermal mixture is reduced once; populations and fidelity read it
        built = []
        check = measurement.InternalDensityMatrix.__post_init__

        def counting(rho):
            built.append(rho)
            check(rho)

        monkeypatch.setattr(measurement.InternalDensityMatrix, "__post_init__", counting)
        res = run_rap(zc_config(nbar=0.06))
        assert built == [res.rho]
        assert res.fidelity == experiment.dicke_fidelity(res.rho)
        assert list(res.populations.values()) == list(res.rho.populations())

    def test_thermal_without_room_below_the_guard_level_raises(self):
        # n_max = 1 leaves no Fock level for a thermal component once the
        # prepared quantum and the guard level are taken
        with pytest.raises(ValueError, match="n_max >= 2"):
            run_rap(zc_config(nbar=0.5, n_max=1))


class TestWStateExtension:
    def test_three_ion_single_excitation(self):
        # scaled so eta * Omega_peak stays at the two-ion operating value
        cfg = zc_config(n_qubits=3,
                        omega_peak=TWO_PI * 145e3 * math.sqrt(3 / 2))
        res = run_rap(cfg)
        assert res.fidelity >= 0.98
        target = make_dicke(3, 1, cfg.space())
        final = res.evolution.final_state
        assert final.squared_overlap(target) >= 0.98
        # every readout comes from the 8x8 reduced state
        assert res.rho.matrix.shape == (8, 8)
        assert res.fidelity == pytest.approx(psi_dicke_fidelity(final), abs=1e-12)
        expected = psi_internal_populations(final)
        assert list(res.populations) == list(expected)
        for word, p in expected.items():
            assert res.populations[word] == pytest.approx(p, abs=1e-12)


class TestSweep:
    def test_single_point_matches_run_rap(self):
        cfg = zc_config()
        single = sweep(cfg, "width", [2 * cfg.sigma])
        direct = run_rap(cfg)
        assert single.fidelity[0] == pytest.approx(direct.fidelity, abs=1e-12)
        assert single.bound[0] == pytest.approx(direct.bound.value, abs=1e-15)

    def test_points_independent_and_deterministic(self):
        cfg = zc_config()
        widths = [200e-6, 280e-6]
        both = sweep(cfg, "width", widths)
        alone = sweep(cfg, "width", widths[:1])
        assert both.fidelity[0] == alone.fidelity[0]
        again = sweep(cfg, "width", widths)
        assert np.array_equal(both.fidelity, again.fidelity)

    def test_decomposition_identity_each_point(self):
        result = sweep(zc_config(), "peak", default_sweep_values(TWO_PI * 145e3, 5))
        for k in range(5):
            assert result.fidelity[k] == pytest.approx(
                result.diag_sum[k] / 2 + result.offdiag[k] / 2, abs=1e-12)

    def test_width_axis_compensated_vs_not(self):
        widths = np.linspace(100e-6, 500e-6, 5)
        zc = sweep(zc_config(), "width", widths)
        raw = sweep(none_config(), "width", widths)
        assert np.all(zc.fidelity >= 0.5)
        assert np.any(raw.fidelity < zc.fidelity)
        assert not zc.partial and not raw.partial

    def test_long_pulses_around_200_us(self):
        # the widest point, 2 sigma = 1.26 ms, runs ~380k steps; rounding
        # used to push its trace past the density matrix's tolerance
        cfg = zc_config(sigma=200e-6)
        result = sweep(cfg, "width", default_sweep_values(2 * cfg.sigma, 5))
        assert result.values[-1] == pytest.approx(1.265e-3, rel=1e-3)
        assert not result.partial, result.errors
        assert np.all(result.fidelity >= 0.5)

    def test_monotone_bound_along_width(self):
        widths = [150e-6, 244e-6, 400e-6]
        result = sweep(zc_config(), "width", widths)
        assert np.all(np.diff(result.bound) <= 1e-3)

    def test_broken_decomposition_identity_raises(self, monkeypatch):
        # a fidelity that no longer matches the density matrix must stop the
        # sweep, also under python -O
        true_fidelity = experiment.dicke_fidelity
        monkeypatch.setattr(experiment, "dicke_fidelity",
                            lambda psi: true_fidelity(psi) + 1e-9)
        with pytest.raises(NumericsError, match="diag_sum/2"):
            sweep(zc_config(), "width", [244e-6])

    @pytest.mark.parametrize("asymmetry", [dict(ion_weights=(1.0, 0.9)),
                                           dict(ion_detuning_offsets=(0.0, TWO_PI * 2e3))])
    def test_asymmetric_ions_no_failed_points(self, asymmetry):
        result = sweep(zc_config(**asymmetry), "width", [200e-6, 244e-6])
        assert not result.partial
        assert np.all(np.isfinite(result.fidelity)) and np.all(np.isfinite(result.bound))

    def test_errors_recorded_not_raised(self):
        cfg = zc_config(dt=1e-6)   # violates the step-size guard at every point
        result = sweep(cfg, "width", [244e-6, 300e-6])
        assert result.partial
        assert all("StepSizeError" in e for e in result.errors)
        assert np.all(np.isnan(result.fidelity))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            sweep(zc_config(), "amplitude", [1.0])
        with pytest.raises(ValueError):
            sweep(zc_config(), "width", [])
        with pytest.raises(ValueError):
            sweep(zc_config(n_qubits=3), "width", [244e-6])


class TestPotentialsReport:
    def test_minima_structure_at_elevated_amplitude(self):
        cfg = zc_config(omega_peak=TWO_PI * 300e3)
        report = potentials_report(cfg)
        assert count_local_minima(report.variants["zero_carrier"].gap) == 1
        assert count_local_minima(report.variants["none"].gap) >= 2

    def test_bare_branches_with_zero_drive(self):
        # even point count keeps the exact crossing off the grid
        cfg = zc_config(omega_peak=TWO_PI * 1e-3)
        report = potentials_report(cfg, n_points=2000)
        var = report.variants["none"]
        dur = cfg.pulse().duration
        delta_sb = -TWO_PI * 100e3 + TWO_PI * 200e3 * report.times / dur
        bare_gap = np.abs(delta_sb)
        assert np.max(np.abs(var.gap - bare_gap)) < TWO_PI * 1.0
        assert count_local_minima(var.gap) == 1   # plain V shape, no splitting

    def test_same_grid_for_both_variants(self):
        report = potentials_report(zc_config(), n_points=801)
        assert report.variants["none"].energies.shape == \
            report.variants["zero_carrier"].energies.shape == (801, 5)


class TestTruncationConvergence:
    def test_default_n_max_converged(self):
        assert truncation_overlap(zc_config()) >= 1.0 - 1e-6

    def test_thermal_component_at_the_cutoff(self):
        # crosstalk on the preparation's sideband pulse puts a little of the
        # n = 1 component in |uu, n_max>, whose sideband partner lies above
        # the cutoff; the n = 0 component reaches only n_max - 1
        cfg = zc_config(n_max=3, nbar=0.5, prep=PrepMode.SIMULATED_PULSES,
                        prep_weights=(1.0, 0.002))
        assert truncation_overlap(replace(cfg, nbar=0.0)) >= 1.0 - 1e-6
        assert truncation_overlap(cfg) < 1.0 - 1e-6


class TestHelpers:
    def test_default_sweep_values_span_one_decade(self):
        values = default_sweep_values(100.0)
        assert len(values) == 15
        assert values[0] == pytest.approx(100 / math.sqrt(10))
        assert values[-1] == pytest.approx(100 * math.sqrt(10))
