"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dickesim import (CompensationMode, ExperimentConfig, InternalDensityMatrix,
                      StateVector, adiabatic_spectrum, build_space,
                      dicke_fidelity, embed, evolve, make_dicke,
                      nonadiabatic_coupling, parity, potentials_report,
                      reduced_model, rotate_global, run_rap,
                      simulate_histogram, sweep, trace_out_motion)
from dickesim.drive import TWO_PI
from dickesim.measurement import parity_closed_form
from oracles import (count_local_maxima, count_local_minima, excitation_number,
                     random_density_matrix, threshold_estimate)

OPERATING_POINT = ExperimentConfig()          # 145 kHz, 2 sigma = 244 us, +-100 kHz
UNCOMPENSATED = ExperimentConfig(compensation=CompensationMode.none())


def report(name: str, started: float, detail: str):
    print(f"PASS {name} ({time.perf_counter() - started:.1f}s): {detail}")


def test_fidelity_decomposition_arithmetic():
    t0 = time.perf_counter()
    diag_sum, offset = 0.74, 0.58
    rest = (1.0 - diag_sum) / 2.0
    m = np.diag([rest, diag_sum / 2, diag_sum / 2, rest]).astype(complex)
    m[1, 2] = m[2, 1] = offset / 2.0
    # purify rho through the motional mode: tracing the motion out of
    # sum_k sqrt(p_k) |v_k>|k> gives back rho
    p, v = np.linalg.eigh(m)
    space = build_space(2, 3)
    psi = StateVector(space, (v * np.sqrt(np.clip(p, 0.0, None))).reshape(-1))
    rho = trace_out_motion(psi)
    assert np.allclose(rho.matrix, m, atol=1e-12)
    value = dicke_fidelity(rho)
    assert value == pytest.approx(0.66, abs=0.005)
    report("fidelity-decomposition", t0, f"0.74/2 + 0.58/2 -> F = {value:.4f}")


def test_coherent_limit_and_robustness():
    t0 = time.perf_counter()
    center = run_rap(OPERATING_POINT)
    assert center.fidelity >= 0.99

    timings = {}
    results = {}
    grids = {"width": np.linspace(0.7, 1.3, 15) * 2 * OPERATING_POINT.sigma,
             "peak": np.linspace(0.7, 1.3, 15) * OPERATING_POINT.omega_peak}
    for axis, values in grids.items():
        t_axis = time.perf_counter()
        results[axis] = sweep(OPERATING_POINT, axis, values)
        timings[axis] = time.perf_counter() - t_axis
        assert not results[axis].partial
        assert np.all(results[axis].fidelity >= 0.9)
        assert timings[axis] < 60.0

    t_axis = time.perf_counter()
    raw = sweep(UNCOMPENSATED, "width", grids["width"])
    timings["width-none"] = time.perf_counter() - t_axis
    assert timings["width-none"] < 60.0
    assert np.any(raw.fidelity < results["width"].fidelity)
    report("coherent-limit-robustness", t0,
           f"F(op)={center.fidelity:.4f}; min F width/peak = "
           f"{results['width'].fidelity.min():.4f}/{results['peak'].fidelity.min():.4f}; "
           f"uncompensated lower at {int(np.sum(raw.fidelity < results['width'].fidelity))} "
           f"of 15 points; sweep times {timings['width']:.0f}/{timings['peak']:.0f}/"
           f"{timings['width-none']:.0f} s")


def test_carrier_shift_gap_structure():
    # at 145 kHz the carrier deformation (peak shift ~ 15 kHz against a
    # 100 kHz chirp half-range) is too weak to fold the branch gap; the
    # structural comparison runs at 300 kHz with the same timing, where the
    # shift's slew rate exceeds the chirp rate
    t0 = time.perf_counter()
    cfg = replace(OPERATING_POINT, omega_peak=TWO_PI * 300e3)
    rep = potentials_report(cfg)
    gap_minima = {name: count_local_minima(var.gap, smooth=5)
                  for name, var in rep.variants.items()}
    ratio_maxima = {name: count_local_maxima(var.alpha_over_omega_sq, smooth=5)
                    for name, var in rep.variants.items()}
    assert gap_minima["zero_carrier"] == 1
    assert gap_minima["none"] >= 2
    assert ratio_maxima["zero_carrier"] == 1
    assert ratio_maxima["none"] >= 2
    report("carrier-shift-structure", t0,
           f"gap minima none/zero_carrier = {gap_minima['none']}/"
           f"{gap_minima['zero_carrier']}; |alpha/omega|^2 maxima = "
           f"{ratio_maxima['none']}/{ratio_maxima['zero_carrier']}")


def test_parity_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        rho = random_density_matrix(rng)
        phi = float(rng.uniform(0, 2 * math.pi))
        operator_value = parity(rotate_global(rho, phi))
        worst = max(worst, abs(operator_value - parity_closed_form(rho, phi)))
    assert worst < 1e-10

    d = np.zeros(4, dtype=complex)
    d[1] = d[2] = 1 / math.sqrt(2)
    dicke = InternalDensityMatrix(np.outer(d, d))
    for phi in np.linspace(0, math.pi, 25):
        assert parity(rotate_global(dicke, phi)) == pytest.approx(1.0, abs=1e-12)
    report("parity-identities", t0,
           f"max |operator - closed form| = {worst:.2e} over 1000 states; "
           "ideal-state parity unity at all phases")


def test_conservation_and_structure_suite():
    t0 = time.perf_counter()
    drive = OPERATING_POINT.rap_drive()
    psi0 = embed(drive.space, "dd", 1)
    res = evolve(drive, psi0, dt=OPERATING_POINT.dt_for(drive), sample_every=2000)
    assert res.norm_drift < 1e-9

    n_e = excitation_number(drive.space)
    excitation = [np.vdot(s.amplitudes, n_e @ s.amplitudes).real
                  for _, s in res.trajectory]
    drift_ne = float(np.max(np.abs(np.array(excitation) - 1.0)))
    assert drift_ne < 1e-8

    space = drive.space
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.index("du", 0)] = 1 / math.sqrt(2)
    amp[space.index("ud", 0)] = -1 / math.sqrt(2)
    dark = StateVector(space, amp)
    res_dark = evolve(UNCOMPENSATED.rap_drive(), dark, sample_every=5000)
    dark_dev = max(abs(1.0 - dark.squared_overlap(s)) for _, s in res_dark.trajectory)
    assert dark_dev < 1e-8

    # density-matrix structure for every rho this suite produces
    rhos = [trace_out_motion(res.final_state)]
    rhos += [rotate_global(rhos[0], phi) for phi in (0.0, 0.9, 2.3)]
    for rho in rhos:
        m = rho.matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-10
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(m).min() >= -1e-10
    report("conservation-structure", t0,
           f"norm drift {res.norm_drift:.1e}; excitation drift {drift_ne:.1e}; "
           f"dark-state deviation {dark_dev:.1e}; {len(rhos)} density matrices valid")


def _five_state_reference(model, psi0, duration, n_steps):
    """Independent dense midpoint stepper for the 5x5 reduced model."""
    dt = duration / n_steps
    psi = psi0.astype(complex)
    for k in range(n_steps):
        h = model.h_at((k + 0.5) * dt)
        w, v = np.linalg.eigh(h)
        psi = (v * np.exp(-1j * w * dt)) @ (v.conj().T @ psi)
    return psi


def test_oracle_equivalences():
    t0 = time.perf_counter()
    # (a) five-state model vs full 24-dim model, eta = 0.082 <= 0.1
    pop_err = {}
    for name, cfg in (("none", UNCOMPENSATED), ("zero_carrier", OPERATING_POINT)):
        drive = cfg.rap_drive()
        duration = drive.pulse.duration
        n_steps = 2**16
        model = reduced_model(drive)
        psi5 = _five_state_reference(model, np.eye(5)[1], duration, n_steps)
        res = evolve(drive, embed(drive.space, "dd", 1), dt=duration / n_steps)
        space = drive.space
        d0 = make_dicke(2, 1, space).amplitudes
        d1 = np.zeros(space.dim, dtype=complex)
        d1[space.index("du", 1)] = d1[space.index("ud", 1)] = 1 / math.sqrt(2)
        basis = [embed(space, "dd", 0).amplitudes, embed(space, "dd", 1).amplitudes,
                 d0, d1, embed(space, "uu", 0).amplitudes]
        full_pops = np.array([abs(np.vdot(b, res.final_state.amplitudes)) ** 2
                              for b in basis])
        pop_err[name] = float(np.max(np.abs(np.abs(psi5) ** 2 - full_pops)))
        assert pop_err[name] <= 1e-3

    # (b) Landau-Zener analytic nonadiabatic coupling vs finite differences
    k_rate, v = 1.0, 0.25
    times = np.linspace(-8, 8, 4001)
    frame = adiabatic_spectrum(
        lambda ts: np.stack([np.array([[-k_rate * t / 2, v], [v, k_rate * t / 2]])
                             for t in ts]), times)
    alpha = nonadiabatic_coupling(frame, 0, 1)
    analytic = k_rate * v / (k_rate**2 * times**2 + 4 * v**2)
    lz_err = float(np.max(np.abs(np.abs(alpha[1:-1]) - analytic[1:-1]))
                   / np.max(analytic))
    assert lz_err <= 0.01

    # (c) single-ion sideband pi pulse vs the analytic two-level solution
    from dickesim import DriveConfig, PulseShape, Sideband
    space = build_space(1, 3)
    eta, omega = 0.082, TWO_PI * 145e3
    bsb = DriveConfig(space=space, eta=eta, omega_v=TWO_PI * 0.7e6,
                      pulse=PulseShape.flat(omega), sideband=Sideband.BLUE,
                      compensation=CompensationMode.zero_carrier())
    t_pi = math.pi / (eta * omega)
    pi_err = 0.0
    for frac in (0.3, 0.5, 1.0):
        got = evolve(bsb, embed(space, "d", 0),
                     duration=frac * t_pi).final_state.population("u", 1)
        pi_err = max(pi_err, abs(got - math.sin(frac * math.pi / 2) ** 2))
    assert pi_err <= 1e-3
    report("oracle-equivalences", t0,
           f"five-state vs full max pop err none/zc = {pop_err['none']:.1e}/"
           f"{pop_err['zero_carrier']:.1e}; LZ alpha err {lz_err:.2%}; "
           f"pi-pulse err {pi_err:.1e}")


def test_readout_round_trip():
    t0 = time.perf_counter()
    populations = (0.13, 0.74, 0.13)
    shots = 100_000
    hist = simulate_histogram(populations, shots=shots, seed=20240)
    estimate = threshold_estimate(hist, (35, 105))
    errs = []
    for p, e in zip(populations, estimate):
        sigma = math.sqrt(p * (1 - p) / shots)
        errs.append(abs(e - p) / sigma)
        assert abs(e - p) <= 3 * sigma
    report("readout-roundtrip", t0,
           "recovered (%.4f, %.4f, %.4f); errors %.2f/%.2f/%.2f sigma"
           % (*estimate, *errs))


def test_w_state_extension():
    t0 = time.perf_counter()
    # eta drops by sqrt(2/3) for three ions; scale the peak to keep
    # eta * Omega_peak at the two-ion operating value
    cfg = ExperimentConfig(n_qubits=3, omega_peak=TWO_PI * 145e3 * math.sqrt(1.5))
    res = run_rap(cfg)
    assert res.fidelity >= 0.98
    target = make_dicke(3, 1, cfg.space())
    overlap = res.evolution.final_state.squared_overlap(target)
    assert overlap >= 0.98
    report("w-state-extension", t0,
           f"three-ion fidelity {res.fidelity:.4f} (overlap {overlap:.4f}) "
           f"at dim {cfg.space().dim}")
