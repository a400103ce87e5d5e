"""Preparation, entangling runs, sweeps, potentials reports, thermal knob."""

import gc
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickesim import (CompensationMode, ContinuityError, DegeneracyError,
                      ExperimentConfig, NumericsError, PrepMode, diabatic_bound,
                      make_dicke, potentials_report, reduced_model, run_rap, sweep)
from dickesim import experiment, measurement
from dickesim.drive import TWO_PI, CompensationKind, DriveTerms
from dickesim.experiment import default_sweep_values
from dickesim.propagator import default_dt
from oracles import (count_local_minima, population, prepare_fock1, psi_dicke_fidelity,
                     psi_internal_populations, rap_pair_gap, squared_overlap,
                     truncation_overlap)


def zc_config(**kwargs):
    return ExperimentConfig(**kwargs)


def none_config(**kwargs):
    return ExperimentConfig(compensation=CompensationMode.none(), **kwargs)


class TestPrepareFock1:
    def test_ideal(self):
        psi = prepare_fock1(zc_config())
        assert population(psi, "dd", 1) == 1.0

    def test_simulated_perfect_addressing(self):
        cfg = zc_config(prep=PrepMode.SIMULATED_PULSES)
        psi = prepare_fock1(cfg)
        assert population(psi, "dd", 1) >= 0.999

    def test_simulated_crosstalk_leakage(self):
        cfg = zc_config(prep=PrepMode.SIMULATED_PULSES, prep_weights=(1.0, 0.1))
        psi = prepare_fock1(cfg)
        leak = 1.0 - population(psi, "dd", 1)
        # two pi/2-scaled crosstalk rotations, each about sin^2(0.1 pi/2)
        assert 0.01 < leak < 0.12

    def test_addressing_offset_suppresses_crosstalk(self):
        weak = zc_config(prep=PrepMode.SIMULATED_PULSES, prep_weights=(1.0, 0.1))
        detuned = replace(weak, prep_detuning_offsets=(0.0, TWO_PI * 100e3))
        leak_weak = 1.0 - population(prepare_fock1(weak), "dd", 1)
        leak_detuned = 1.0 - population(prepare_fock1(detuned), "dd", 1)
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
            res_n = evolve(cfg_n.rap_drive(), embed(space, "dd", n + 1))
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
        # prepared quantum and the guard level are taken; the config says so
        # when it is constructed, before any run
        with pytest.raises(ValueError, match="n_max >= 2"):
            ExperimentConfig(nbar=0.5, n_max=1)


class TestWStateExtension:
    def test_three_ion_single_excitation(self):
        # scaled so eta * Omega_peak stays at the two-ion operating value
        cfg = zc_config(n_qubits=3,
                        omega_peak=TWO_PI * 145e3 * math.sqrt(3 / 2))
        res = run_rap(cfg)
        assert res.fidelity >= 0.98
        target = make_dicke(3, 1, cfg.space())
        final = res.evolution.final_state
        assert squared_overlap(final, target) >= 0.98
        # every readout comes from the 8x8 reduced state
        assert res.rho.matrix.shape == (8, 8)
        assert res.fidelity == pytest.approx(psi_dicke_fidelity(final), abs=1e-12)
        expected = psi_internal_populations(final)
        assert list(res.populations) == list(expected)
        for word, p in expected.items():
            assert res.populations[word] == pytest.approx(p, abs=1e-12)


class TestIonNumberIndependence:
    """The derived eta is the COM mode's, ~ 1/sqrt(N), so the collective
    sideband coupling sqrt(N) eta Omega, and with it the whole transfer from
    ``|d..d,1>`` into the W state, does not depend on the ion number."""

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(peak_khz=st.floats(100.0, 300.0), width_us=st.floats(150.0, 500.0),
           start_khz=st.floats(80.0, 150.0), end_khz=st.floats(80.0, 150.0))
    def test_fidelity_and_bound_do_not_depend_on_n(self, peak_khz, width_us,
                                                   start_khz, end_khz):
        point = dict(n_max=3, omega_peak=TWO_PI * peak_khz * 1e3, sigma=width_us * 0.5e-6,
                     chirp_start=-TWO_PI * start_khz * 1e3, chirp_end=TWO_PI * end_khz * 1e3)
        # the step rule's coupling N eta Omega grows as sqrt(N): one step for
        # every N keeps the step count, and so the integration error, equal
        dt = default_dt(ExperimentConfig(n_qubits=6, **point).rap_drive())
        two = run_rap(ExperimentConfig(n_qubits=2, dt=dt, **point))
        assert two.bound is not None
        for n in (1, 3, 4, 5, 6):
            res = run_rap(ExperimentConfig(n_qubits=n, dt=dt, **point))
            assert res.fidelity == pytest.approx(two.fidelity, rel=0, abs=1e-12)
            assert res.bound.value == pytest.approx(two.bound.value, rel=1e-12)
            assert res.bound.time == two.bound.time


class TestPairComponentBound:
    """The bound read on the RAP pair's coupled component against the full model's.

    The states the component leaves out are exactly decoupled from the pair,
    so on one grid both give the same bound.  Only the grid can differ: the
    full model also refines for a crossing outside the pair.  Where the
    pair's own crossing falls between the points of the grid the pair needs
    (its gap changes sign there, so the component refuses the bound), the
    full model may go on to a finer grid and report a number far above 1.
    """

    @staticmethod
    def bound_of(model):
        try:
            frame, (i, j) = experiment._rap_frame(model)
            return diabatic_bound(frame, i, j)
        except (ContinuityError, DegeneracyError):
            return None

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 4),
           compensation=st.sampled_from([CompensationMode.none(),
                                         CompensationMode.zero_carrier(),
                                         CompensationMode.effective(0.6, TWO_PI * 400e3)]),
           weights=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
           offsets_khz=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4),
           peak_khz=st.floats(0.05, 400.0), sigma_us=st.floats(5.0, 300.0))
    # a crossing of {|D,1>, |uu,0>} breaks the full model's 2001-point grid,
    # where the weaker RAP pair's crossing falls between grid points
    @example(n_qubits=4, compensation=CompensationMode.zero_carrier(),
             weights=[0.621, 0.965, 0.135, 0.247], offsets_khz=[6.46, -6.76, -14.86, 15.81],
             peak_khz=0.36, sigma_us=184.6)
    def test_component_bound_is_full_model_bound(self, n_qubits, compensation, weights,
                                                 offsets_khz, peak_khz, sigma_us):
        cfg = zc_config(n_qubits=n_qubits, compensation=compensation,
                        omega_peak=TWO_PI * 1e3 * peak_khz, sigma=1e-6 * sigma_us,
                        ion_weights=tuple(weights[:n_qubits]),
                        ion_detuning_offsets=tuple(TWO_PI * 1e3 * o
                                                   for o in offsets_khz[:n_qubits]))
        full = reduced_model(cfg.rap_drive())
        pair = reduced_model(cfg.rap_drive(), around=experiment._RAP_STATES)
        carrier_free = compensation.kind is CompensationKind.ZERO_CARRIER
        assert len(pair.states) == (2 if carrier_free else len(full.states))
        expected = self.bound_of(full)
        bound = experiment.rap_diabatic_bound(cfg)
        if bound is None and expected is not None:
            frame, (i, j) = experiment._rap_frame(pair)
            assert len(frame.times) < len(experiment._rap_frame(full)[0].times)
            with pytest.raises(DegeneracyError, match="changes sign"):
                diabatic_bound(frame, i, j)
            assert expected.value > 1.0
            return
        if expected is None:
            assert bound is None
            return
        assert bound.value == pytest.approx(expected.value, rel=1e-12, abs=0.0)
        assert bound.time == expected.time


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
        result = sweep(zc_config(), "peak", default_sweep_values(zc_config(), "peak", 5))
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
        result = sweep(cfg, "width", default_sweep_values(cfg, "width", 5))
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
        cfg = zc_config(dt=2e-6)   # violates the step-size guard at every point
        result = sweep(cfg, "width", [244e-6, 300e-6])
        assert result.partial
        assert all("StepSizeError" in e for e in result.errors)
        assert np.all(np.isnan(result.fidelity))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            sweep(zc_config(), "amplitude", [1.0])
        with pytest.raises(ValueError):
            sweep(zc_config(), "width", [])


def live_drive_records():
    gc.collect()
    return sum(isinstance(obj, DriveTerms) for obj in gc.get_objects())


class TestNoRetainedDrives:
    """Every reader builds the record it reads and drops it when it returns."""

    def test_no_drive_record_outlives_a_thermal_simulated_prep_run(self):
        cfg = zc_config(prep=PrepMode.SIMULATED_PULSES, nbar=0.1)
        assert len(cfg.thermal_components()) == 4
        run_rap(cfg)
        assert live_drive_records() == 0

    def test_no_drive_record_outlives_a_sweep(self):
        cfg = zc_config(n_max=3)
        assert not sweep(cfg, "width", default_sweep_values(cfg, "width", 3)).partial
        assert live_drive_records() == 0


class TestPotentialsReport:
    def test_minima_structure_at_elevated_amplitude(self):
        cfg = zc_config(omega_peak=TWO_PI * 300e3)
        report = potentials_report(cfg)
        assert count_local_minima(rap_pair_gap(cfg, report, "zero_carrier")) == 1
        assert count_local_minima(rap_pair_gap(cfg, report, "none")) >= 2

    def test_bare_branches_with_zero_drive(self):
        # a chirp to +110 kHz puts the exact crossing (delta_sb = 0) at
        # 10/21 of the pulse, off the grid (at its center it is a grid point)
        cfg = zc_config(omega_peak=TWO_PI * 1e-3, chirp_end=TWO_PI * 110e3)
        report = potentials_report(cfg)
        gap = rap_pair_gap(cfg, report, "none")
        dur = cfg.pulse().duration
        delta_sb = -TWO_PI * 100e3 + TWO_PI * 210e3 * report.times / dur
        bare_gap = np.abs(delta_sb)
        assert np.max(np.abs(gap - bare_gap)) < TWO_PI * 1.0
        assert count_local_minima(gap) == 1   # plain V shape, no splitting

    def test_same_grid_for_both_variants(self):
        report = potentials_report(zc_config())
        assert report.variants["none"].energies.shape == \
            report.variants["zero_carrier"].energies.shape == (2001, 5)


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


class TestConfigResolution:
    def test_left_out_per_ion_lists_are_filled_in(self):
        cfg = ExperimentConfig(n_qubits=3)
        assert cfg.ion_weights == (1.0, 1.0, 1.0)
        assert cfg.ion_detuning_offsets == (0.0, 0.0, 0.0)
        assert cfg.prep_weights == (1.0, 0.0, 0.0)
        assert cfg.prep_detuning_offsets == (0.0, 0.0, 0.0)
        assert cfg.rap_drive().ion_weights == cfg.ion_weights

    def test_another_ion_number_needs_its_own_lists(self):
        with pytest.raises(ValueError, match="ion_weights has 2 entries for 3 ions"):
            replace(ExperimentConfig(), n_qubits=3)
        three = replace(ExperimentConfig(), n_qubits=3, ion_weights=(), ion_detuning_offsets=(),
                        prep_weights=(), prep_detuning_offsets=())
        assert three == ExperimentConfig(n_qubits=3)

    def test_zero_drive_is_refused_only_where_it_runs_pi_pulses(self):
        # the preparation's pi pulses are built at construction; without a
        # drive they never end, which matters only to a simulated preparation
        res = run_rap(zc_config(omega_peak=0.0))
        assert res.fidelity == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError, match="finite positive duration"):
            run_rap(zc_config(omega_peak=0.0, prep=PrepMode.SIMULATED_PULSES))


class TestHelpers:
    @pytest.mark.parametrize("axis", ["width", "peak"])
    def test_default_sweep_values_span_one_decade(self, axis):
        # both axes center on 100: the full width 2 sigma and the peak
        values = default_sweep_values(zc_config(sigma=50.0, omega_peak=100.0), axis)
        assert len(values) == 15
        assert values[0] == pytest.approx(100 / math.sqrt(10))
        assert values[-1] == pytest.approx(100 * math.sqrt(10))

    @pytest.mark.parametrize("axis", ["width", "peak"])
    def test_one_sweep_point_is_the_center(self, axis):
        # np.geomspace alone would return the decade's low end, 100 / sqrt(10)
        values = default_sweep_values(zc_config(sigma=50.0, omega_peak=100.0), axis, 1)
        assert values.tolist() == [100.0]
