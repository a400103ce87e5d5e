"""Adiabatic frames, nonadiabatic couplings, diabatic bounds, the reduced model.

The hand-written two-ion five-state matrix, the two-state bright model and
the two-ion bright/dark matrix are kept here as independent oracles for the
projection in :func:`reduced_model` and for the oracle's whole symmetric
basis change (``oracles.symmetric_transform``).
The point-by-point spectrum scan with greedy branch matching is kept as the
reference for the batched :func:`adiabatic_spectrum`.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import (CompensationMode, ContinuityError, DegeneracyError,
                      DriveConfig, PulseShape, Sideband, adiabatic_spectrum,
                      build_space, diabatic_bound, nonadiabatic_coupling,
                      reduced_model, spectrum_with_refinement)
from dickesim.drive import TWO_PI, CompensationKind, envelope
from dickesim.spectral import (CONTINUITY_MIN, DEFAULT_GRID_POINTS, DEGENERACY_REL,
                               AdiabaticFrame, diabatic_ratio)
from oracles import (dense_terms, drive_config, hamiltonian_matrix, symmetric_reduced_terms,
                     symmetric_transform)

OMEGA_PEAK = TWO_PI * 145e3
SIGMA = 122e-6
OMEGA_V = TWO_PI * 0.7e6
ETA = 0.082


def five_state_drive(compensation, omega_peak=OMEGA_PEAK, sigma=SIGMA):
    pulse = PulseShape(omega_peak=omega_peak, sigma=sigma,
                       chirp_start=-TWO_PI * 100e3, chirp_end=TWO_PI * 100e3)
    return drive_config(space=build_space(2, 5), eta=ETA, omega_v=OMEGA_V,
                        pulse=pulse, sideband=Sideband.RED,
                        compensation=compensation)


def hand_written_five_state(cfg, t):
    """Two symmetrically driven ions over ``|dd,0>, |dd,1>, |D,0>, |D,1>, |uu,0>``.

    The sideband couples ``|dd,1> <-> |D,0>`` and ``|D,1> <-> |uu,0>`` with
    ``sqrt(2) eta Omega/2``; the carrier (dropped under ZERO_CARRIER) couples
    states of equal motional number with ``sqrt(2) Omega/2``; EFFECTIVE adds
    the counter-shift per up ion.
    """
    om = float(envelope(cfg.pulse, t)) * cfg.ion_weights[0]
    dc = float(cfg.carrier_detuning(t)) + cfg.ion_detuning_offsets[0]
    h = np.diag([0.0, cfg.omega_v, -dc, -dc + cfg.omega_v, -2.0 * dc])
    side = math.sqrt(2.0) * cfg.eta * om / 2.0
    h[1, 2] = h[2, 1] = side
    h[3, 4] = h[4, 3] = side
    comp = cfg.compensation
    if comp.kind is not CompensationKind.ZERO_CARRIER:
        carrier = math.sqrt(2.0) * om / 2.0
        h[0, 2] = h[2, 0] = carrier
        h[1, 3] = h[3, 1] = carrier
        h[2, 4] = h[4, 2] = carrier
    if comp.kind is CompensationKind.EFFECTIVE:
        shift = comp.power_ratio * om * om / (4.0 * comp.comp_detuning)
        h -= shift * np.diag([0.0, 0.0, 1.0, 1.0, 2.0])
    return h


def two_state_bright(cfg, t):
    """Bright pair ``|d..d,1> <-> |D,0>`` with coupling ``sqrt(N) mean(w) eta Omega/2``."""
    coupling = (math.sqrt(cfg.space.n_qubits) * np.mean(cfg.ion_weights)
                * cfg.eta / 2.0 * float(envelope(cfg.pulse, t)))
    return np.array([[cfg.omega_v, coupling],
                     [coupling, -float(cfg.carrier_detuning(t))]])


def morris_shore_2ion():
    """Two-ion bright/dark change over (dd, du, ud, uu): real, orthogonal, involutory."""
    r = 1.0 / math.sqrt(2.0)
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, r, r, 0.0],
                     [0.0, r, -r, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def stacked(h):
    """Adapt a callable of one time to the stacked ``(K, d, d)`` contract."""
    return lambda ts: np.stack([h(t) for t in ts])


def greedy_assignment(overlaps):
    """Match new eigenvectors to previous branches by descending |overlap|."""
    n = overlaps.shape[0]
    assignment = np.full(n, -1)
    taken = np.zeros(n, dtype=bool)
    for flat in np.argsort(-overlaps.ravel()):
        prev, new = divmod(flat, n)
        if assignment[prev] < 0 and not taken[new]:
            assignment[prev] = new
            taken[new] = True
            if np.all(assignment >= 0):
                break
    return assignment


def sequential_spectrum(h_of_t, times):
    """Reference scan: one eigh per point and greedy matching.

    ``h_of_t`` takes one time and returns a real symmetric matrix.  Returns
    ``(energies, vectors)``; each vector keeps the sign ``eigh`` gave it.  A
    continuity failure names the branch whose closest new eigenvector
    overlaps it least, and that overlap.
    """
    times = np.asarray(times, dtype=float)
    h0 = np.asarray(h_of_t(times[0]))
    dim = h0.shape[0]
    energies = np.empty((len(times), dim))
    vectors = np.empty((len(times), dim, dim))
    for k, t in enumerate(times):
        h = np.asarray(h_of_t(t)) if k else h0
        w, v = np.linalg.eigh(h)
        scale = max(1.0, float(np.max(np.abs(w))))
        if np.any(np.diff(w) <= DEGENERACY_REL * scale):
            raise DegeneracyError(f"exactly degenerate eigenvalues at t={t:.6e} s",
                                  time=float(t))
        if k == 0:
            energies[0], vectors[0] = w, v
            continue
        overlap = np.abs(vectors[k - 1].T @ v)
        # each branch's closest new eigenvector; when every one is above 0.9
        # the greedy match assigns exactly these
        closest = overlap.max(axis=1)
        if np.any(closest <= CONTINUITY_MIN):
            worst = int(np.argmin(closest))
            raise ContinuityError(f"branch {worst} overlap {closest[worst]:.3f} <= "
                                  f"{CONTINUITY_MIN} between t={times[k-1]:.6e} and t={t:.6e}")
        cols = greedy_assignment(overlap)
        energies[k], vectors[k] = w[cols], v[:, cols]
    return energies, vectors


def where_broken(exc):
    """The branch, its overlap and the pair of grid times a ContinuityError names."""
    return re.search(r"branch \d+ overlap \S+ <= \S+ between t=\S+ and t=\S+",
                     str(exc)).group(0).rstrip(";")


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2


def block_diagonal(blocks):
    dim = sum(len(b) for b in blocks)
    out = np.zeros((dim, dim), dtype=np.result_type(*blocks))
    k = 0
    for b in blocks:
        out[k:k + len(b), k:k + len(b)] = b
        k += len(b)
    return out


def polynomial_family(rng, dim, layout, t_cross=0.0):
    """``H(t) = A + t B + t^2 C`` with random real symmetric coefficients.

    ``sectors``: two uncoupled sectors whose levels cross exactly (eigh's
    ascending order swaps there, so branches follow non-identity
    permutations).  ``twins``: a sector and its copy shifted by
    ``(t - t_cross)``, exactly degenerate at ``t_cross``.  Works for a scalar
    time and for a 1-d array of times.
    """
    half = dim // 2
    sizes = {"dense": [dim], "sectors": [half, dim - half],
             "twins": [half, half, dim - 2 * half]}[layout]
    coefs = []
    for scale in (1.0, 3.0, 2.0):
        blocks = [scale * random_symmetric(rng, n) for n in sizes]
        if layout == "twins":
            blocks[1] = blocks[0]
        coefs.append(block_diagonal(blocks))
    a, b, c = coefs
    twin = np.diag(np.repeat([0.0, 1.0, 0.0][:len(sizes)], sizes))

    def h(t):
        t = np.asarray(t)[..., None, None]
        out = a + t * b + t * t * c
        return out + (t - t_cross) * twin if layout == "twins" else out
    return h


class TestSequentialEquivalence:
    """The batched scan reproduces the point-by-point reference: frames, the
    exception class, where in time the first failure sits and, for a
    continuity failure, the branch and overlap it names."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
           layout=st.sampled_from(["dense", "sectors", "twins"]),
           n_points=st.integers(3, 150))
    def test_matches_sequential_reference(self, seed, dim, layout, n_points):
        rng = np.random.default_rng(seed)
        times = np.linspace(-1.0, 1.0, n_points)
        h = polynomial_family(rng, dim, layout, t_cross=times[int(rng.integers(n_points))])
        try:
            energies, vectors = sequential_spectrum(h, times)
        except (ContinuityError, DegeneracyError) as ref:
            with pytest.raises((ContinuityError, DegeneracyError)) as err:
                adiabatic_spectrum(h, times)
            assert type(err.value) is type(ref)
            if isinstance(ref, DegeneracyError):
                assert err.value.time == ref.time
            else:
                assert where_broken(err.value) == where_broken(ref)
            return
        frame = adiabatic_spectrum(h, times)
        assert np.array_equal(frame.energies, energies)
        assert np.array_equal(frame.vectors, vectors)

    @pytest.mark.parametrize("k_cross", [0, 63, 64, 74, 133])
    def test_first_failure_located_at_its_step(self, k_cross):
        # a sharp avoided crossing just after grid point k_cross: the failing
        # step joins k_cross to k_cross + 1, from the first step to the last
        times = np.linspace(0.0, 1.0, 135)
        step = times[1] - times[0]
        t_c = times[k_cross] + 0.3 * step

        def h(t):
            # the mixing angle turns by ~56 degrees over the failing step only
            x = np.asarray(t)[..., None, None] - t_c
            return x * np.diag([-1.0, 1.0]) + 0.3 * step * np.array([[0.0, 1.0], [1.0, 0.0]])

        with pytest.raises(ContinuityError) as ref:
            sequential_spectrum(h, times)
        with pytest.raises(ContinuityError) as err:
            adiabatic_spectrum(h, times)
        assert where_broken(err.value) == where_broken(ref.value)
        assert f"t={times[k_cross + 1]:.6e}" in where_broken(err.value)

    @pytest.mark.parametrize("k", [1, 64, 72])
    def test_degeneracy_beats_continuity_at_one_point(self, k):
        # H vanishes at times[k]: degenerate there, and the step into it
        # breaks continuity too (identity columns against (1, +-1)/sqrt 2)
        times = np.linspace(0.0, 1.0, 73)

        def h(t):
            return (times[k] - np.asarray(t))[..., None, None] * np.array([[0.0, 1.0],
                                                                          [1.0, 0.0]])

        with pytest.raises(DegeneracyError) as ref:
            sequential_spectrum(h, times)
        with pytest.raises(DegeneracyError) as err:
            adiabatic_spectrum(h, times)
        assert err.value.time == ref.value.time == times[k]

    @pytest.mark.parametrize("compensation", [
        CompensationMode.none(), CompensationMode.zero_carrier(),
        CompensationMode.effective(0.6, TWO_PI * 400e3)])
    @pytest.mark.parametrize("sigma", [SIGMA / 3, SIGMA, 2.5 * SIGMA])
    def test_reduced_model_frames_identical(self, compensation, sigma):
        cfg = five_state_drive(compensation, sigma=sigma)
        model = reduced_model(cfg)
        times = np.linspace(0.0, cfg.pulse.duration, 2001)
        energies, vectors = sequential_spectrum(model.h_at, times)
        frame = adiabatic_spectrum(model.h_at, times)
        assert np.array_equal(frame.energies, energies)
        assert np.array_equal(frame.vectors, vectors)

    def test_temporaries_stay_a_small_multiple_of_the_frame(self):
        # the most refined grid spectrum_with_refinement builds: three doublings;
        # one pass holds the stacked H, eigh's output and the overlaps at once
        cfg = five_state_drive(CompensationMode.none())
        model = reduced_model(cfg)
        times = np.linspace(0.0, cfg.pulse.duration, 8 * (2001 - 1) + 1)
        tracemalloc.start()
        try:
            frame = adiabatic_spectrum(model.h_at, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = frame.energies.nbytes + frame.vectors.nbytes
        assert peak < 4 * own


class TestAdiabaticSpectrum:
    def test_constant_diagonal(self):
        diag = np.diag([0.0, 1.0, 3.0])
        frame = adiabatic_spectrum(stacked(lambda t: diag), np.linspace(0, 1, 11))
        assert np.allclose(frame.energies, [0.0, 1.0, 3.0])
        for k in range(11):
            assert np.allclose(np.abs(frame.vectors[k]), np.eye(3))

    def test_avoided_crossing_gap(self):
        v = 0.3

        def h(t):
            return np.array([[-t, v], [v, t]])

        times = np.linspace(-5, 5, 801)
        frame = adiabatic_spectrum(stacked(h), times)
        gap = frame.energies[:, 1] - frame.energies[:, 0]
        assert np.min(gap) == pytest.approx(2 * v, rel=1e-4)

    def test_orthonormality_and_eigen_equation(self):
        cfg = five_state_drive(CompensationMode.none())
        model = reduced_model(cfg)
        times = np.linspace(0, cfg.pulse.duration, 501)
        frame = adiabatic_spectrum(model.h_at, times)
        h = model.h_at(times)
        v = frame.vectors
        assert np.max(np.abs(v.transpose(0, 2, 1) @ v - np.eye(5))) < 1e-10
        residual = h @ v - v * frame.energies[:, None, :]
        assert np.max(np.abs(residual)) < 1e-10 * np.max(np.abs(h))
        # each branch keeps its direction up to sign between grid points
        succ = np.abs(np.sum(v[:-1] * v[1:], axis=1))
        assert np.min(succ) > 0.9

    def test_eigen_residual_and_trace(self):
        cfg = five_state_drive(CompensationMode.none())
        model = reduced_model(cfg)
        times = np.linspace(0, cfg.pulse.duration, 101)
        frame = adiabatic_spectrum(model.h_at, times)
        for k in (0, 50, 100):
            h = model.h_at(times[k])
            norm = np.linalg.norm(h)
            for i in range(5):
                res = h @ frame.vectors[k][:, i] - frame.energies[k, i] * frame.vectors[k][:, i]
                assert np.linalg.norm(res) < 1e-10 * norm
            assert np.sum(frame.energies[k]) == pytest.approx(
                np.trace(h), abs=1e-9 * norm)

    def test_continuity_error_on_coarse_grid(self):
        def h(t):
            return np.array([[-t, 1e-4], [1e-4, t]])

        with pytest.raises(ContinuityError):
            adiabatic_spectrum(stacked(h), np.linspace(-5, 5, 5))

    def test_refinement_recovers(self):
        # the gap sits at 0.3 of the default grid's spacing: the eigenvectors
        # turn too far between points until the spacing is a quarter of it
        def h(t):
            return np.array([[-t, 0.0015], [0.0015, t]])

        with pytest.raises(ContinuityError):
            adiabatic_spectrum(stacked(h), np.linspace(-5, 5, DEFAULT_GRID_POINTS))
        frame = spectrum_with_refinement(stacked(h), -5.0, 5.0)
        assert len(frame.times) == 8001   # two doublings of the interval count
        assert frame.refinements == 2

    def test_refinement_gives_up_on_a_crossing_at_a_grid_point(self):
        # the crossing at t = 0 is the centre point of every nested grid, where
        # the eigenvectors are the 45-degree mixtures whatever the spacing
        def h(t):
            return np.array([[-t, 1e-12], [1e-12, t]])

        with pytest.raises(ContinuityError, match="refine the grid"):
            adiabatic_spectrum(stacked(h), np.linspace(-5, 5, DEFAULT_GRID_POINTS))
        with pytest.raises(ContinuityError) as err:
            spectrum_with_refinement(stacked(h), -5.0, 5.0)
        message = str(err.value)
        assert message.startswith("branch ")
        assert "finest grid tried, 16001 points" in message
        assert message.endswith("the avoided crossing is too sharp for this drive")
        assert "refine the grid" not in message

    def test_exact_degeneracy_detected(self):
        def h(t):
            return np.diag([0.0, t])

        with pytest.raises(DegeneracyError) as err:
            adiabatic_spectrum(stacked(h), np.linspace(-1, 1, 21))
        assert err.value.time == pytest.approx(0.0)

    def test_grid_validation(self):
        h = stacked(lambda t: np.eye(2))
        with pytest.raises(ValueError):
            adiabatic_spectrum(h, [0.0, 1.0])
        with pytest.raises(ValueError):
            adiabatic_spectrum(h, [0.0, 1.0, 0.5])

    def test_callable_must_return_stack(self):
        grid = np.linspace(0, 1, 5)
        hermitian = np.array([[0.0, 0.5j], [-0.5j, 1.0]])
        for h in (lambda t: np.eye(2),                       # one matrix, not a stack
                  lambda t: np.zeros((len(t) - 1, 2, 2)),    # wrong count
                  lambda t: np.zeros((len(t), 2, 3)),        # not square
                  stacked(lambda t: hermitian),              # complex
                  stacked(lambda t: np.eye(2, dtype=complex))):  # complex dtype, real values
            with pytest.raises(ValueError, match="expected a real"):
                adiabatic_spectrum(h, grid)

    def test_direct_grid_reports_no_refinement(self):
        frame = spectrum_with_refinement(stacked(lambda t: np.diag([0.0, 1.0 + t])),
                                         0.0, 1.0)
        assert frame.refinements == 0
        assert adiabatic_spectrum(stacked(lambda t: np.eye(2) * [1.0, 2.0]),
                                  np.linspace(0, 1, 5)).refinements == 0


class TestNonadiabaticCoupling:
    def test_constant_hamiltonian_gives_zero(self):
        h = np.array([[0.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 2.5]])
        frame = adiabatic_spectrum(stacked(lambda t: h), np.linspace(0, 1, 51))
        alpha = nonadiabatic_coupling(frame, 0, 1)
        assert np.max(np.abs(alpha)) < 1e-12

    def test_landau_zener_analytic(self):
        # mixing angle theta = atan2(2V, -delta), alpha = theta_dot / 2
        k_rate, v = 1.0, 0.25

        def h(t):
            return np.array([[-k_rate * t / 2, v], [v, k_rate * t / 2]])

        times = np.linspace(-8, 8, 4001)
        frame = adiabatic_spectrum(stacked(h), times)
        alpha = nonadiabatic_coupling(frame, 0, 1)
        expected = k_rate * v / (k_rate**2 * times**2 + 4 * v**2)
        interior = slice(1, -1)
        assert np.max(np.abs(np.abs(alpha[interior]) - expected[interior])) \
            <= 0.01 * np.max(expected)

    def test_self_convergence_on_refinement(self):
        cfg = five_state_drive(CompensationMode.zero_carrier())
        model = reduced_model(cfg)
        dur = cfg.pulse.duration
        frames = [adiabatic_spectrum(model.h_at, np.linspace(0, dur, n))
                  for n in (1001, 2001)]
        a_coarse = nonadiabatic_coupling(frames[0], 1, 2)
        a_fine = nonadiabatic_coupling(frames[1], 1, 2)
        scale = np.max(np.abs(a_fine))
        # compare on the shared (coarse) grid away from the endpoints
        assert np.max(np.abs(a_coarse[1:-1] - a_fine[2:-2:2])) < 0.01 * scale

    def test_same_branch_rejected(self):
        h = np.diag([0.0, 1.0, 2.0])
        frame = adiabatic_spectrum(stacked(lambda t: h), np.linspace(0, 1, 11))
        with pytest.raises(ValueError):
            nonadiabatic_coupling(frame, 1, 1)


class TestDiabaticBound:
    def test_constant_hamiltonian_zero_bound(self):
        h = np.array([[0.0, 0.3], [0.3, 1.0]])
        frame = adiabatic_spectrum(stacked(lambda t: h), np.linspace(0, 1, 51))
        assert diabatic_bound(frame, 0, 1).value == pytest.approx(0.0, abs=1e-20)

    def test_slow_limit_monotone(self):
        values = []
        for scale in (1.0, 3.0, 10.0):
            cfg = five_state_drive(CompensationMode.zero_carrier(),
                                   sigma=SIGMA * scale)
            model = reduced_model(cfg)
            frame = spectrum_with_refinement(model.h_at, 0.0, cfg.pulse.duration)
            values.append(diabatic_bound(frame, 1, 2).value)
        assert values[0] > values[1] > values[2]

    def test_gauge_independence(self):
        # conjugating H(t) by a fixed diagonal of signs flips components of
        # every eigenvector; the bound must not move by a bit
        cfg = five_state_drive(CompensationMode.none())
        model = reduced_model(cfg)
        d = np.random.default_rng(3).choice([-1.0, 1.0], 5)
        times = np.linspace(0, cfg.pulse.duration, 1001)
        plain = adiabatic_spectrum(model.h_at, times)
        rotated = adiabatic_spectrum(
            lambda t: d[:, None] * model.h_at(t) * d[None, :], times)
        assert diabatic_bound(rotated, 1, 2) == diabatic_bound(plain, 1, 2)

    @pytest.mark.parametrize("compensation", [
        CompensationMode.none(), CompensationMode.zero_carrier()])
    def test_vector_signs_leave_ratio_bit_identical(self, compensation):
        # eigh's signs are arbitrary: flip each stored vector at random, per
        # grid point and branch, and the ratio must not move by a bit
        cfg = five_state_drive(compensation)
        model = reduced_model(cfg)
        frame = adiabatic_spectrum(model.h_at, np.linspace(0, cfg.pulse.duration, 1001))
        signs = np.random.default_rng(11).choice([-1.0, 1.0], (len(frame.times), 1, 5))
        flipped = AdiabaticFrame(times=frame.times, energies=frame.energies,
                                 vectors=frame.vectors * signs)
        for i, j in ((1, 2), (2, 1), (0, 3), (3, 4)):
            assert np.array_equal(diabatic_ratio(flipped, i, j), diabatic_ratio(frame, i, j))

    def test_near_degeneracy_rejected(self):
        times = np.linspace(0, 1, 11)
        energies = np.column_stack([np.zeros(11), np.full(11, 1e-8)])
        energies[5, 1] = 1.0   # max |omega| dwarfs the minimum
        vectors = np.tile(np.eye(2)[None], (11, 1, 1))
        frame = AdiabaticFrame(times=times, energies=energies,
                               vectors=vectors)
        with pytest.raises(DegeneracyError):
            diabatic_bound(frame, 0, 1)

    def test_gap_sign_change_rejected(self):
        # a crossing far narrower than the spacing falls between grid points:
        # the tracking follows the diabatic states, so E_1 - E_0 changes sign
        # while staying well away from zero on the grid
        def h(t):
            return np.array([[t, 1e-9], [1e-9, -t]])

        frame = adiabatic_spectrum(stacked(h), np.linspace(-1, 1, 20))
        omega = frame.energies[:, 1] - frame.energies[:, 0]
        assert omega[0] > 0.1 and omega[-1] < -0.1
        assert np.min(np.abs(omega)) > 0.1
        with pytest.raises(DegeneracyError, match="changes sign"):
            diabatic_bound(frame, 0, 1)


class TestMorrisShore:
    def test_unitary_and_involution(self):
        u = morris_shore_2ion()
        assert np.allclose(u @ u.T, np.eye(4), atol=1e-15)
        assert np.allclose(u @ u, np.eye(4), atol=1e-15)

    def test_bright_row(self):
        u = morris_shore_2ion()
        assert u[1, 1] == pytest.approx(1 / math.sqrt(2))
        assert u[1, 2] == pytest.approx(1 / math.sqrt(2))

    def test_dark_state_uncoupled_for_equal_weights(self):
        u = morris_shore_2ion()
        coupling = np.array([0.0, 1.0, 1.0, 0.0]) * ETA * OMEGA_PEAK / 2
        transformed = u @ coupling
        assert transformed[1] == pytest.approx(math.sqrt(2) * ETA * OMEGA_PEAK / 2)
        assert transformed[2] == pytest.approx(0.0, abs=1e-12)

    def test_unequal_weights_leave_residual(self):
        u = morris_shore_2ion()
        coupling = np.array([0.0, 1.0, 0.8, 0.0]) * ETA * OMEGA_PEAK / 2
        transformed = u @ coupling
        assert transformed[2] == pytest.approx(0.2 / math.sqrt(2) * ETA * OMEGA_PEAK / 2)

    def test_symmetric_transform_is_morris_shore(self):
        # equal up to the sign of the dark column, so every check above holds
        # for the whole rotation the reduced model is checked against
        t = symmetric_transform(2)
        u = morris_shore_2ion()
        assert np.allclose(t[:, [0, 1, 3]], u[:, [0, 1, 3]], atol=1e-15)
        assert min(np.abs(t[:, 2] - u[:, 2]).max(),
                   np.abs(t[:, 2] + u[:, 2]).max()) < 1e-15


class TestFiveStateModel:
    def test_zero_drive_matches_bare_energies(self):
        cfg = five_state_drive(CompensationMode.none(), omega_peak=0.0)
        model = reduced_model(cfg)
        t = 0.2 * cfg.pulse.duration
        h = model.h_at(t)
        delta_c = float(cfg.carrier_detuning(t))
        expected = np.diag([0.0, OMEGA_V, -delta_c, -delta_c + OMEGA_V, -2 * delta_c])
        assert np.allclose(h, expected)

    def test_zero_carrier_block_structure(self):
        cfg = five_state_drive(CompensationMode.zero_carrier())
        h = reduced_model(cfg).h_at(cfg.pulse.duration / 2)
        # blocks {dd0}, {dd1, D0}, {D1, uu0}
        coupled = {(1, 2), (2, 1), (3, 4), (4, 3)}
        for i in range(5):
            for j in range(5):
                if i != j and (i, j) not in coupled:
                    assert h[i, j] == 0.0

    def test_components_follow_the_coupling_pattern(self):
        cfg = five_state_drive(CompensationMode.zero_carrier())
        model = reduced_model(cfg)
        times = np.linspace(0.0, cfg.pulse.duration, 7)
        for seeds, expected in (([(0, 0)], ((0, 0),)),
                                ([(1, 0)], ((0, 1), (1, 0))),
                                ([(2, 0)], ((1, 1), (2, 0))),
                                ([(2, 0), (0, 0)], ((0, 0), (1, 1), (2, 0)))):
            part = model.component(seeds)
            assert part.states == expected
            keep = [model.states.index(state) for state in expected]
            assert np.array_equal(part.h_at(times), model.h_at(times)[:, keep][:, :, keep])
        # the carrier couples every state to the pair
        coupled = reduced_model(five_state_drive(CompensationMode.none()))
        assert coupled.component([(0, 1)]).states == coupled.states

    def test_matches_full_model_single_excitation_branches(self):
        # the dd0 / dd1 / D0 eigenvalues are exact sub-blocks of the 24-dim
        # Hamiltonian under zero-carrier compensation
        cfg = five_state_drive(CompensationMode.zero_carrier())
        t = cfg.pulse.duration / 2
        h5 = reduced_model(cfg).h_at(t)
        eig5 = np.linalg.eigvalsh(h5)
        full = np.linalg.eigvalsh(hamiltonian_matrix(cfg, t))
        bright = math.sqrt(2) * ETA * OMEGA_PEAK / 2
        for target in (0.0, OMEGA_V - bright, OMEGA_V + bright):
            assert np.min(np.abs(eig5 - target)) < 1e-6 * OMEGA_PEAK
            assert np.min(np.abs(full - target)) < 1e-6 * OMEGA_PEAK

    def test_rejects_asymmetric_configs(self):
        # unequal weights and other ion numbers project like any other drive;
        # only a drive other than the red sideband is refused
        pulse = PulseShape(omega_peak=OMEGA_PEAK, sigma=SIGMA)
        base = dict(eta=ETA, omega_v=OMEGA_V, pulse=pulse, sideband=Sideband.RED)
        for cfg in (drive_config(space=build_space(2, 5), ion_weights=(1.0, 0.5), **base),
                    drive_config(space=build_space(3, 5), **base)):
            h = reduced_model(cfg).h_at(pulse.duration / 2)
            assert h.shape == (5, 5) and np.all(np.isfinite(h))
        with pytest.raises(ValueError):
            reduced_model(drive_config(space=build_space(2, 5),
                                       sideband=Sideband.BLUE,
                                       **{k: v for k, v in base.items()
                                          if k != "sideband"}))

    @pytest.mark.parametrize("compensation", [
        CompensationMode.none(), CompensationMode.zero_carrier(),
        CompensationMode.effective(0.6, TWO_PI * 400e3)])
    def test_matches_hand_written_five_state(self, compensation):
        cfg = five_state_drive(compensation)
        model = reduced_model(cfg)
        assert model.states == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0))
        rng = np.random.default_rng(7)
        times = rng.uniform(0.0, cfg.pulse.duration, 20)
        for t in times:
            expected = hand_written_five_state(cfg, t)
            gap = np.abs(model.h_at(t) - expected).max()
            assert gap <= 1e-15 * np.abs(expected).max()
        assert np.array_equal(model.h_at(times), np.stack([model.h_at(t) for t in times]))

    @pytest.mark.parametrize("n_qubits", [1, 3, 4])
    @pytest.mark.parametrize("compensation", [CompensationMode.none(),
                                              CompensationMode.zero_carrier()])
    def test_bright_pair_block_is_two_state_model(self, n_qubits, compensation):
        rng = np.random.default_rng(n_qubits)
        pulse = PulseShape(omega_peak=OMEGA_PEAK, sigma=SIGMA,
                           chirp_start=-TWO_PI * 100e3, chirp_end=TWO_PI * 100e3)
        cfg = drive_config(space=build_space(n_qubits, 3), eta=ETA, omega_v=OMEGA_V,
                           pulse=pulse, ion_weights=tuple(rng.uniform(0.5, 1.0, n_qubits)),
                           compensation=compensation)
        model = reduced_model(cfg)
        pair = [model.states.index((0, 1)), model.states.index((1, 0))]
        for t in rng.uniform(0.0, pulse.duration, 10):
            expected = two_state_bright(cfg, t)
            block = model.h_at(t)[np.ix_(pair, pair)]
            assert np.abs(block - expected).max() <= 1e-15 * np.abs(expected).max()


class TestReducedModelEigenvalues:
    """Under zero_carrier with equal weights and offsets, ``{|d..d,1>, |D,0>}``
    is an invariant subspace of the full Hamiltonian."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 4), n_max=st.integers(1, 3),
           weight=st.floats(0.05, 1.0), offset_khz=st.floats(-20.0, 20.0),
           frac=st.floats(0.0, 1.0))
    def test_bright_pair_eigenvalues_are_full_eigenvalues(self, n_qubits, n_max, weight,
                                                          offset_khz, frac):
        pulse = PulseShape(omega_peak=OMEGA_PEAK, sigma=SIGMA,
                           chirp_start=-TWO_PI * 100e3, chirp_end=TWO_PI * 100e3)
        cfg = DriveConfig(space=build_space(n_qubits, n_max), eta=ETA, omega_v=OMEGA_V,
                          pulse=pulse, ion_weights=(weight,) * n_qubits,
                          ion_detuning_offsets=(TWO_PI * 1e3 * offset_khz,) * n_qubits,
                          compensation=CompensationMode.zero_carrier())
        t = frac * pulse.duration
        model = reduced_model(cfg)
        pair = [model.states.index((0, 1)), model.states.index((1, 0))]
        reduced = np.linalg.eigvalsh(model.h_at(t)[np.ix_(pair, pair)])
        h = hamiltonian_matrix(cfg, t)
        full = np.linalg.eigvalsh(h)
        for value in reduced:
            assert np.min(np.abs(full - value)) <= 1e-12 * np.abs(h).max()


def projected_terms(cfg, states):
    """The former dense projection ``P^T S P`` of the oracle's terms onto the
    uniform states ``(m up, n quanta)``."""
    n_qubits, n_fock = cfg.space.n_qubits, cfg.space.n_fock
    first = np.cumsum([0] + [math.comb(n_qubits, m) for m in range(n_qubits)])
    uniform = symmetric_transform(n_qubits)[:, first]
    fock = np.eye(n_fock)
    proj = np.column_stack([np.kron(uniform[:, m], fock[n]) for m, n in states])
    return np.stack([proj.T @ s @ proj for s in dense_terms(cfg)])


class TestReducedModelProjection:
    """The reduced model, the drive record projected onto the Dicke vectors,
    against the dense projection and against the whole symmetric rotation."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 4), n_max=st.integers(1, 3),
           weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           offsets_khz=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4),
           uniform=st.booleans(),
           comp=st.sampled_from([CompensationMode.none(), CompensationMode.zero_carrier(),
                                 CompensationMode.effective(0.6, TWO_PI * 400e3)]))
    def test_terms_equal_dense_projection(self, n_qubits, n_max, weights, offsets_khz,
                                          uniform, comp):
        if uniform:
            weights, offsets_khz = [weights[0]] * 4, [offsets_khz[0]] * 4
        pulse = PulseShape(omega_peak=OMEGA_PEAK, sigma=SIGMA,
                           chirp_start=-TWO_PI * 100e3, chirp_end=TWO_PI * 100e3)
        cfg = DriveConfig(space=build_space(n_qubits, n_max), eta=ETA, omega_v=OMEGA_V,
                          pulse=pulse, ion_weights=tuple(weights[:n_qubits]),
                          ion_detuning_offsets=tuple(TWO_PI * 1e3 * o
                                                     for o in offsets_khz[:n_qubits]),
                          compensation=comp)
        model = reduced_model(cfg)
        expected = projected_terms(cfg, model.states)
        for term, ref in zip(model.terms, expected):
            assert np.abs(term - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_qubits=st.integers(1, 6), n_max=st.integers(1, 3),
           weights=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
           offsets_khz=st.lists(st.floats(-20.0, 20.0), min_size=6, max_size=6),
           comp=st.sampled_from([CompensationMode.none(), CompensationMode.zero_carrier(),
                                 CompensationMode.effective(0.6, TWO_PI * 400e3)]))
    def test_projection_is_the_full_rotation_at_the_dicke_columns(
            self, n_qubits, n_max, weights, offsets_khz, comp):
        # the projection onto the Dicke vectors rounds differently from the
        # whole 2**N x 2**N rotation, by at most a few ulps of a term
        pulse = PulseShape(omega_peak=OMEGA_PEAK, sigma=SIGMA,
                           chirp_start=-TWO_PI * 100e3, chirp_end=TWO_PI * 100e3)
        cfg = DriveConfig(space=build_space(n_qubits, n_max), eta=ETA, omega_v=OMEGA_V,
                          pulse=pulse, ion_weights=tuple(weights[:n_qubits]),
                          ion_detuning_offsets=tuple(TWO_PI * 1e3 * o
                                                     for o in offsets_khz[:n_qubits]),
                          compensation=comp)
        model = reduced_model(cfg)
        expected = symmetric_reduced_terms(cfg, model.states)
        for term, ref in zip(model.terms, expected):
            assert np.abs(term - ref).max() <= 1e-14 * np.abs(ref).max()


class TestCarrierShiftStructure:
    """Extra close-approach of the transfer branches with carrier couplings on.

    At the robustness-scan operating point (peak 145 kHz) the carrier-induced
    deformation is too small to fold the gap; these checks run at 300 kHz,
    where the shift's slew rate exceeds the chirp rate and the extra approach
    exists.
    """

    def branch_data(self, compensation, omega_peak=TWO_PI * 300e3):
        cfg = five_state_drive(compensation, omega_peak=omega_peak)
        model = reduced_model(cfg)
        frame = spectrum_with_refinement(model.h_at, 0.0, cfg.pulse.duration)
        v0 = frame.vectors[0]
        i = int(np.argmax(np.abs(v0[1])))
        j = int(np.argmax(np.abs(v0[2])))
        gap = np.abs(frame.energies[:, j] - frame.energies[:, i])
        ratio = (nonadiabatic_coupling(frame, i, j)
                 / (frame.energies[:, j] - frame.energies[:, i])) ** 2
        return frame.times, gap, ratio

    @staticmethod
    def minima_positions(y, smooth=5):
        s = np.convolve(y, np.ones(smooth) / smooth, mode="valid")
        d = np.diff(s)
        return np.flatnonzero((d[:-1] < 0) & (d[1:] >= 0)) + smooth // 2 + 1

    def test_extra_approach_only_with_carrier(self):
        times, gap_none, ratio_none = self.branch_data(CompensationMode.none())
        _, gap_zc, ratio_zc = self.branch_data(CompensationMode.zero_carrier())
        assert len(self.minima_positions(gap_zc)) == 1
        mins_none = self.minima_positions(gap_none)
        assert len(mins_none) >= 2
        # the extra approach sits before the chirp center
        assert times[mins_none[0]] < times[-1] / 2
        # |alpha/omega|^2: single central peak when compensated, an extra
        # off-center local maximum otherwise
        assert len(self.minima_positions(-ratio_zc)) == 1
        assert len(self.minima_positions(-ratio_none)) >= 2
