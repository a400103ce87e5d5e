"""End-to-end runs: Fock-state preparation, the chirped entangling pulse,
adiabatic-potential reports, and robustness sweeps.

Times are seconds and frequencies angular (rad/s) throughout, matching the
drive layer.  The default operating point: peak carrier Rabi frequency
2 pi x 145 kHz, pulse width 2 sigma = 244 us, detuning swept linearly over
+-2 pi x 100 kHz, trap frequency 2 pi x 0.7 MHz.

Every ion number takes the same path: the fidelity is :func:`dicke_fidelity`
of the final state, and the diabatic bound (like the two-ion potentials
report) reads the adiabatic frame of :func:`dickesim.spectral.reduced_model`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (HilbertSpace, StateVector, build_space, embed, make_dicke)
from .drive import (CompensationMode, DriveConfig, PulseShape, Sideband,
                    TWO_PI, derive_eta)
from .errors import (ContinuityError, DegeneracyError, NumericsError,
                     ResourceGuardError)
from .measurement import InternalDensityMatrix, trace_out_motion
from .propagator import EvolutionResult, evolve, max_frequency, propagate_sequence
from .spectral import (DiabaticBound, adiabatic_spectrum, diabatic_bound,
                       nonadiabatic_coupling, reduced_model,
                       spectrum_with_refinement)

DEFAULT_OMEGA_PEAK = TWO_PI * 145e3
DEFAULT_SIGMA = 122e-6          # half of the 244 us full width 2 sigma
DEFAULT_CHIRP = TWO_PI * 100e3
DEFAULT_OMEGA_V = TWO_PI * 0.7e6
DEFAULT_WAVELENGTH = 729e-9
DEFAULT_MASS_AMU = 40.0

#: experiment-layer integration step: fraction of the fastest period kept
#: inside the propagator's 0.05 guard; see the convergence data in the tests.
EXPERIMENT_DT_FACTOR = 0.04

THERMAL_TAIL = 1e-4

#: allowed gap in the sweep's F = diag_sum/2 + offdiag/2 identity
DECOMPOSITION_TOL = 1e-12


class PrepMode(enum.Enum):
    IDEAL_FOCK = "ideal_fock"
    SIMULATED_PULSES = "simulated_pulses"


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved parameters for one experiment."""

    n_qubits: int = 2
    n_max: int = 5
    omega_peak: float = DEFAULT_OMEGA_PEAK
    sigma: float = DEFAULT_SIGMA
    duration_factor: float = 2.36
    chirp_start: float = -DEFAULT_CHIRP
    chirp_end: float = +DEFAULT_CHIRP
    omega_v: float = DEFAULT_OMEGA_V
    eta: float | None = None
    wavelength: float = DEFAULT_WAVELENGTH
    mass_amu: float = DEFAULT_MASS_AMU
    beam_angle: float = 0.0
    compensation: CompensationMode = field(default_factory=CompensationMode.zero_carrier)
    ion_weights: tuple = ()
    ion_detuning_offsets: tuple = ()
    prep: PrepMode = PrepMode.IDEAL_FOCK
    prep_weights: tuple = ()
    prep_detuning_offsets: tuple = ()
    n_phases: int = 20
    shots: int = 1000
    seed: int = 12345
    nbar: float = 0.0
    dt: float | None = None

    def resolved_eta(self) -> float:
        if self.eta is not None:
            return self.eta
        return derive_eta(self.wavelength, self.mass_amu, self.omega_v,
                          self.n_qubits, self.beam_angle)

    def space(self) -> HilbertSpace:
        return build_space(self.n_qubits, self.n_max)

    def pulse(self) -> PulseShape:
        return PulseShape(omega_peak=self.omega_peak, sigma=self.sigma,
                          duration_factor=self.duration_factor,
                          chirp_start=self.chirp_start, chirp_end=self.chirp_end)

    def rap_drive(self) -> DriveConfig:
        return DriveConfig(
            space=self.space(), eta=self.resolved_eta(), omega_v=self.omega_v,
            pulse=self.pulse(), ion_weights=self.ion_weights,
            ion_detuning_offsets=self.ion_detuning_offsets,
            sideband=Sideband.RED, compensation=self.compensation,
        )

    def dt_for(self, drive: DriveConfig) -> float:
        if self.dt is not None:
            return self.dt
        return EXPERIMENT_DT_FACTOR / max_frequency(drive)

    def thermal_components(self) -> list:
        """Fock-diagonal thermal weights ``[(n, p), ...]``, renormalized over the kept ones.

        Components stop once the remaining tail drops below ``THERMAL_TAIL``
        and never exceed ``n_max - 2`` (preparation adds one quantum, and the
        topmost Fock level is reserved as the truncation guard), so
        ``nbar > 0`` needs ``n_max >= 2``; a ValueError says so otherwise.
        """
        if self.nbar <= 0:
            return [(0, 1.0)]
        if self.n_max < 2:
            raise ValueError(f"nbar = {self.nbar} needs n_max >= 2 to keep any thermal "
                             f"component, got n_max = {self.n_max}")
        weights = []
        total = 0.0
        for n in range(self.n_max - 1):
            p = self.nbar**n / (1.0 + self.nbar) ** (n + 1)
            weights.append((n, p))
            total += p
            if 1.0 - total < THERMAL_TAIL:
                break
        return [(n, p / total) for n, p in weights]


def internal_populations(psi: StateVector) -> dict:
    """Spin-word populations with motion summed out."""
    space = psi.space
    amp = psi.amplitudes.reshape(2**space.n_qubits, space.n_fock)
    pops = np.sum(np.abs(amp) ** 2, axis=1)
    return {space.basis_state(s * space.n_fock).spins: float(p)
            for s, p in enumerate(pops)}


def dicke_fidelity(psi: StateVector, m: int = 1) -> float:
    """``<D_N^(m)| rho_internal |D_N^(m)>`` for any ion number."""
    space = psi.space
    d = make_dicke(space.n_qubits, m).amplitudes
    amp = psi.amplitudes.reshape(2**space.n_qubits, space.n_fock)
    return float(np.sum(np.abs(d.conj() @ amp) ** 2))


def _prep_stages(cfg: ExperimentConfig):
    """Addressed blue-sideband pi pulse then carrier pi pulse on ion 1.

    Both stages use flat envelopes at the configured peak Rabi frequency so
    the analytic pi durations are exact: ``pi/(eta Omega)`` on the sideband
    (the n=0 -> 1 element) and ``pi/Omega`` on the carrier.  The sideband
    stage drops its carrier coupling (compensated shifts); crosstalk enters
    through the prep weights and offsets.
    """
    space = cfg.space()
    eta = cfg.resolved_eta()
    weights = cfg.prep_weights or (1.0,) + (0.0,) * (cfg.n_qubits - 1)
    offsets = cfg.prep_detuning_offsets or (0.0,) * cfg.n_qubits
    flat = PulseShape.flat(cfg.omega_peak)
    bsb = DriveConfig(space=space, eta=eta, omega_v=cfg.omega_v, pulse=flat,
                      ion_weights=weights, ion_detuning_offsets=offsets,
                      sideband=Sideband.BLUE,
                      compensation=CompensationMode.zero_carrier())
    carrier = DriveConfig(space=space, eta=eta, omega_v=cfg.omega_v, pulse=flat,
                          ion_weights=weights, ion_detuning_offsets=offsets,
                          sideband=Sideband.CARRIER,
                          compensation=CompensationMode.none())
    t_bsb = math.pi / (eta * cfg.omega_peak)
    t_carrier = math.pi / cfg.omega_peak
    return [(bsb, t_bsb), (carrier, t_carrier)]


def _prepare_from(cfg: ExperimentConfig, start_n: int) -> StateVector:
    space = cfg.space()
    word = "d" * cfg.n_qubits
    if cfg.prep is PrepMode.IDEAL_FOCK:
        return embed(space, word, start_n + 1)
    stages = _prep_stages(cfg)
    dt = cfg.dt_for(stages[0][0])
    return propagate_sequence(stages, embed(space, word, start_n), dt=dt).final_state


def prepare_fock1(cfg: ExperimentConfig) -> StateVector:
    """State handed to the entangling pulse (nominally ``|d...d, 1>``)."""
    return _prepare_from(cfg, 0)


def _rap_frame(cfg: ExperimentConfig, n_points: int = 2001, times=None):
    """Adiabatic frame of the reduced model and the RAP branch pair ``(i, j)``.

    The pair are the branches whose t=0 eigenvectors follow the bare states
    ``|d..d,1>`` and ``|D,0>``.  Without ``times`` the grid is uniform with
    ``n_points`` points, refined on branch-tracking failure.
    """
    model = reduced_model(cfg.rap_drive())
    labels = list(model.labels)
    if times is None:
        frame = spectrum_with_refinement(model.h_at, 0.0, cfg.pulse().duration,
                                         n_points, basis_labels=labels)
    else:
        frame = adiabatic_spectrum(model.h_at, times, basis_labels=labels)
    picks = []
    for state in ((0, 1), (1, 0)):
        overlaps = np.abs(frame.vectors[0][model.states.index(state)])
        picks.append(next(int(i) for i in np.argsort(-overlaps) if int(i) not in picks))
    return frame, tuple(picks)


def rap_diabatic_bound(cfg: ExperimentConfig,
                       n_points: int = 2001) -> DiabaticBound | None:
    """Upper bound on the diabatic-transition probability for this transfer.

    Returns ``None`` when the avoided crossing is too sharp to resolve (the
    drive is effectively off and the crossing is real), where the bound
    stops being meaningful.
    """
    try:
        frame, (i, j) = _rap_frame(cfg, n_points)
        return diabatic_bound(frame, i, j)
    except (ContinuityError, DegeneracyError):
        return None


@dataclass
class RapResult:
    evolution: EvolutionResult
    rho: InternalDensityMatrix | None
    fidelity: float
    bound: DiabaticBound | None
    populations: dict


def run_rap(cfg: ExperimentConfig, sample_every: int = 0) -> RapResult:
    """Preparation, entangling pulse, trace-out and fidelity in one call.

    With ``nbar > 0`` the initial motional state is a Fock-diagonal thermal
    mixture; each component is propagated as a pure state and populations,
    density matrix and fidelity are averaged (they are linear in the state).
    The returned evolution is the dominant (n = 0) component's.
    """
    drive = cfg.rap_drive()
    dt = cfg.dt_for(drive)
    components = cfg.thermal_components()

    evolution = None
    rho_acc = np.zeros((4, 4), dtype=complex) if cfg.n_qubits == 2 else None
    fid = 0.0
    pops_acc: dict = {}
    for n, weight in components:
        psi0 = _prepare_from(cfg, n)
        res = evolve(drive, psi0, dt=dt, sample_every=sample_every)
        if evolution is None:
            evolution = res
        fid += weight * dicke_fidelity(res.final_state)
        for word, p in internal_populations(res.final_state).items():
            pops_acc[word] = pops_acc.get(word, 0.0) + weight * p
        if rho_acc is not None:
            rho_acc += weight * trace_out_motion(res.final_state).matrix

    rho = InternalDensityMatrix(rho_acc) if rho_acc is not None else None
    bound = rap_diabatic_bound(cfg)
    return RapResult(evolution=evolution, rho=rho, fidelity=float(fid),
                     bound=bound, populations=pops_acc)


@dataclass
class SweepResult:
    """Per-point fidelity decomposition along one pulse-parameter axis."""

    axis: str
    values: np.ndarray
    fidelity: np.ndarray
    diag_sum: np.ndarray
    offdiag: np.ndarray
    bound: np.ndarray
    errors: list
    partial: bool


def default_sweep_values(center: float, points: int = 15) -> np.ndarray:
    """Log-spaced grid over one decade centered on the operating point."""
    return np.geomspace(center / math.sqrt(10.0), center * math.sqrt(10.0), points)


def _config_at(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "width":
        return replace(cfg, sigma=value / 2.0)   # axis is the full width 2 sigma
    if axis == "peak":
        return replace(cfg, omega_peak=value)
    raise ValueError(f"unknown sweep axis {axis!r}; expected 'width' or 'peak'")


def sweep(cfg: ExperimentConfig, axis: str, values=None) -> SweepResult:
    """Independent :func:`run_rap` per grid point; failures do not stop the sweep."""
    if axis not in ("width", "peak"):
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'width' or 'peak'")
    if cfg.n_qubits != 2:
        raise ValueError("the sweep's fidelity decomposition is defined for two ions")
    if values is None:
        center = 2.0 * cfg.sigma if axis == "width" else cfg.omega_peak
        values = default_sweep_values(center)
    values = np.asarray(sorted(float(v) for v in values))
    if values.size == 0 or np.any(values <= 0):
        raise ValueError("sweep values must be positive and nonempty")

    fid = np.full(values.shape, np.nan)
    diag = np.full(values.shape, np.nan)
    off = np.full(values.shape, np.nan)
    bound = np.full(values.shape, np.nan)
    errors: list = [None] * values.size
    for k, value in enumerate(values):
        try:
            res = run_rap(_config_at(cfg, axis, value))
        except (NumericsError, ResourceGuardError, ValueError) as exc:
            errors[k] = f"{type(exc).__name__}: {exc}"
            continue
        m = res.rho.matrix
        diag[k] = float(np.real(m[1, 1] + m[2, 2]))
        off[k] = float(2.0 * np.real(m[1, 2]))
        fid[k] = res.fidelity
        bound[k] = res.bound.value if res.bound is not None else np.nan
        if not abs(fid[k] - (diag[k] / 2.0 + off[k] / 2.0)) < DECOMPOSITION_TOL:
            raise NumericsError(
                f"{axis}={value:.6g}: fidelity {fid[k]!r} != diag_sum/2 + offdiag/2 "
                f"= {diag[k] / 2.0 + off[k] / 2.0!r}")
    return SweepResult(axis=axis, values=values, fidelity=fid, diag_sum=diag,
                       offdiag=off, bound=bound, errors=errors,
                       partial=any(e is not None for e in errors))


@dataclass
class PotentialsVariant:
    name: str
    energies: np.ndarray           # (n_times, 5)
    rap_pair: tuple
    gap: np.ndarray
    alpha_over_omega_sq: np.ndarray


@dataclass
class PotentialsReport:
    times: np.ndarray
    variants: dict


def count_local_minima(y: np.ndarray, smooth: int = 5) -> int:
    """Interior minima of a curve after moving-average smoothing."""
    y = np.asarray(y, dtype=float)
    if smooth > 1:
        y = np.convolve(y, np.ones(smooth) / smooth, mode="valid")
    d = np.diff(y)
    return int(np.sum((d[:-1] < 0) & (d[1:] >= 0)))


def count_local_maxima(y: np.ndarray, smooth: int = 5) -> int:
    return count_local_minima(-np.asarray(y, dtype=float), smooth=smooth)


def potentials_report(cfg: ExperimentConfig, n_points: int = 2001,
                      times=None) -> PotentialsReport:
    """Adiabatic energies and |alpha/omega|^2 with and without carrier couplings.

    Both variants (raw Hamiltonian and carrier terms zeroed) are evaluated on
    the same grid so their curves compare point by point; pass ``times`` to
    pin the grid, otherwise a uniform ``n_points`` grid is used (refined
    automatically on branch-tracking failure).
    """
    if cfg.n_qubits != 2:
        raise ValueError("the potentials report is defined for two ions")
    variants = {}
    if times is not None:
        times = np.asarray(times, dtype=float)
    for name, comp in (("none", CompensationMode.none()),
                       ("zero_carrier", CompensationMode.zero_carrier())):
        frame, (i, j) = _rap_frame(replace(cfg, compensation=comp), n_points, times)
        times = frame.times
        omega = frame.energies[:, j] - frame.energies[:, i]
        ratio = np.abs(nonadiabatic_coupling(frame, i, j) / omega) ** 2
        variants[name] = PotentialsVariant(name=name, energies=frame.energies,
                                           rap_pair=(i, j), gap=np.abs(omega),
                                           alpha_over_omega_sq=ratio)
    return PotentialsReport(times=times, variants=variants)


def truncation_overlap(cfg: ExperimentConfig, extra: int = 2) -> float:
    """Smallest squared overlap of a final state with a rerun at ``n_max + extra``.

    The Fock-truncation convergence check, taken over every thermal
    component :func:`run_rap` keeps (only n = 0 when ``nbar = 0``): each is
    prepared and propagated at both cutoffs.  Values below ``1 - 1e-6`` mean
    the configured ``n_max`` is too small.
    """
    big = replace(cfg, n_max=cfg.n_max + extra)
    small_drive, big_drive = cfg.rap_drive(), big.rap_drive()
    n_fock, big_space = cfg.space().n_fock, big.space()
    worst = math.inf
    for n, _ in cfg.thermal_components():
        small = evolve(small_drive, _prepare_from(cfg, n), dt=cfg.dt_for(small_drive))
        large = evolve(big_drive, _prepare_from(big, n), dt=big.dt_for(big_drive))
        padded = np.zeros((2**cfg.n_qubits, big_space.n_fock), dtype=complex)
        padded[:, :n_fock] = small.final_state.amplitudes.reshape(-1, n_fock)
        lifted = StateVector(big_space, padded.reshape(-1))
        worst = min(worst, lifted.squared_overlap(large.final_state))
    return worst
