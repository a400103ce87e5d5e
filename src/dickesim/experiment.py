"""End-to-end runs: Fock-state preparation, the chirped entangling pulse,
adiabatic-potential reports, and robustness sweeps.

Times are seconds and frequencies angular (rad/s) throughout, matching the
drive layer.  The default operating point: peak carrier Rabi frequency
2 pi x 145 kHz, pulse width 2 sigma = 244 us, detuning swept linearly over
+-2 pi x 100 kHz, trap frequency 2 pi x 0.7 MHz.

Every ion number takes the same path: one reduced density matrix of the
final state (averaged over the thermal components) gives the populations and
the fidelity :func:`dickesim.measurement.dicke_fidelity`, and the diabatic
bound and the potentials report read adiabatic frames of
:func:`dickesim.spectral.reduced_model`: the bound that of the model's
component coupled to the RAP pair (two states under ``zero_carrier``), the
report that of the full model, whose every energy it writes.  Only the sweep's
``diag_sum``/``offdiag`` decomposition is two-ion; other ion numbers leave it
``nan``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import HilbertSpace, StateVector, build_space, embed
from .drive import (DEFAULT_DURATION_FACTOR, CompensationMode, DriveConfig,
                    PulseShape, Sideband, TWO_PI, derive_eta)
from .errors import ContinuityError, DegeneracyError, NumericsError, ResourceGuardError
from .measurement import (InternalDensityMatrix, dicke_fidelity,
                          fidelity_decomposition, trace_out_motion)
from .propagator import EvolutionResult, evolve
from .spectral import (DiabaticBound, ReducedModel, adiabatic_spectrum, diabatic_bound,
                       diabatic_ratio, reduced_model, spectrum_with_refinement)

DEFAULT_OMEGA_PEAK = TWO_PI * 145e3
DEFAULT_SIGMA = 122e-6          # half of the 244 us full width 2 sigma
DEFAULT_CHIRP = TWO_PI * 100e3
DEFAULT_OMEGA_V = TWO_PI * 0.7e6
DEFAULT_WAVELENGTH = 729e-9
DEFAULT_MASS_AMU = 40.0

THERMAL_TAIL = 1e-4

#: the reduced-model states ``(m up, n quanta)`` the RAP pulse transfers between
_RAP_STATES = ((0, 1), (1, 0))

#: allowed gap in the sweep's F = diag_sum/2 + offdiag/2 identity
DECOMPOSITION_TOL = 1e-12


class PrepMode(enum.Enum):
    IDEAL_FOCK = "ideal_fock"
    SIMULATED_PULSES = "simulated_pulses"


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one experiment, resolved and checked at construction.

    Empty per-ion lists become ion weights 1, prep weights ``(1, 0, ...)``
    and offsets 0, and the space, drives and thermal components are built
    once, so a config no run can use cannot be constructed.  ``eta=None``
    and ``dt=None`` stay lazy, so a ``replace`` of ``omega_v`` derives eta
    anew; ``replace(cfg, n_qubits=k)`` is refused unless it gives the lists.
    """

    n_qubits: int = 2
    n_max: int = 5
    omega_peak: float = DEFAULT_OMEGA_PEAK
    sigma: float = DEFAULT_SIGMA
    duration_factor: float = DEFAULT_DURATION_FACTOR
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

    def __post_init__(self):
        space = build_space(self.n_qubits, self.n_max)
        n = self.n_qubits
        # field, the config key a refusal names, and the value when left out
        for name, key, default in (
                ("ion_weights", "ion_weights", (1.0,) * n),
                ("ion_detuning_offsets", "ion_offsets_khz", (0.0,) * n),
                ("prep_weights", "prep_weights", (1.0,) + (0.0,) * (n - 1)),
                ("prep_detuning_offsets", "prep_offsets_khz", (0.0,) * n)):
            values = tuple(getattr(self, name)) or default
            if len(values) != n:
                raise ValueError(f"{key} has {len(values)} entries for {n} ions")
            if name.endswith("weights") and any(not 0.0 <= w <= 1.0 for w in values):
                raise ValueError(f"{key} must lie in [0, 1], got {values}")
            object.__setattr__(self, name, values)

        eta = self.resolved_eta()
        rap = DriveConfig(space=space, eta=eta, omega_v=self.omega_v, pulse=self.pulse(),
                          ion_weights=self.ion_weights,
                          ion_detuning_offsets=self.ion_detuning_offsets,
                          sideband=Sideband.RED, compensation=self.compensation)
        # preparation: an addressed blue-sideband pi pulse, then a carrier pi
        # pulse, on flat envelopes so that the pi durations pi/(eta Omega) (the
        # n = 0 -> 1 element) and pi/Omega are exact; the sideband stage drops
        # its carrier coupling, and crosstalk enters through the prep lists
        flat = dict(space=space, eta=eta, omega_v=self.omega_v,
                    pulse=PulseShape.flat(self.omega_peak), ion_weights=self.prep_weights,
                    ion_detuning_offsets=self.prep_detuning_offsets)
        bsb = DriveConfig(**flat, sideband=Sideband.BLUE,
                          compensation=CompensationMode.zero_carrier())
        carrier = DriveConfig(**flat, sideband=Sideband.CARRIER,
                              compensation=CompensationMode.none())
        # without a drive the pi pulses never end, and evolve refuses to run them
        prep = ((bsb, math.pi / (eta * self.omega_peak) if self.omega_peak else math.inf),
                (carrier, math.pi / self.omega_peak if self.omega_peak else math.inf))
        for name, value in (("_space", space), ("_rap_drive", rap), ("_prep_stages", prep),
                            ("_thermal", _thermal_components(self.nbar, self.n_max))):
            object.__setattr__(self, name, value)

    def resolved_eta(self) -> float:
        if self.eta is not None:
            return self.eta
        return derive_eta(self.wavelength, self.mass_amu, self.omega_v,
                          self.n_qubits, self.beam_angle)

    def space(self) -> HilbertSpace:
        return self._space

    def pulse(self) -> PulseShape:
        return PulseShape(omega_peak=self.omega_peak, sigma=self.sigma,
                          duration_factor=self.duration_factor,
                          chirp_start=self.chirp_start, chirp_end=self.chirp_end)

    def rap_drive(self) -> DriveConfig:
        return self._rap_drive

    def thermal_components(self) -> tuple:
        """Fock-diagonal thermal weights ``((n, p), ...)``, renormalized over the kept ones.

        Components stop once the remaining tail drops below ``THERMAL_TAIL``
        and never exceed ``n_max - 2`` (preparation adds one quantum, and the
        topmost Fock level is reserved as the truncation guard), so
        ``nbar > 0`` needs ``n_max >= 2``; construction refuses it otherwise.
        """
        return self._thermal


def _thermal_components(nbar: float, n_max: int) -> tuple:
    if nbar <= 0:
        return ((0, 1.0),)
    if n_max < 2:
        raise ValueError(f"nbar = {nbar} needs n_max >= 2 to keep any thermal "
                         f"component, got n_max = {n_max}")
    weights = []
    total = 0.0
    for n in range(n_max - 1):
        p = nbar**n / (1.0 + nbar) ** (n + 1)
        weights.append((n, p))
        total += p
        if 1.0 - total < THERMAL_TAIL:
            break
    return tuple((n, p / total) for n, p in weights)


def _prepare_from(cfg: ExperimentConfig, start_n: int) -> StateVector:
    space = cfg.space()
    word = "d" * cfg.n_qubits
    if cfg.prep is PrepMode.IDEAL_FOCK:
        return embed(space, word, start_n + 1)
    psi = embed(space, word, start_n)
    for drive, duration in cfg._prep_stages:
        psi = evolve(drive, psi, dt=cfg.dt, duration=duration).final_state
    return psi


def _rap_frame(model: ReducedModel, times=None):
    """Adiabatic frame of ``model`` and the RAP branch pair ``(i, j)``.

    The pair are the branches whose t=0 eigenvectors follow the bare states
    ``|d..d,1>`` and ``|D,0>``.  Without ``times`` the grid is uniform with
    ``DEFAULT_GRID_POINTS`` points over the pulse, refined on branch-tracking
    failure.
    """
    if times is None:
        frame = spectrum_with_refinement(model.h_at, 0.0, model.drive.pulse.duration)
    else:
        frame = adiabatic_spectrum(model.h_at, times)
    picks = []
    for state in _RAP_STATES:
        overlaps = np.abs(frame.vectors[0][model.states.index(state)])
        picks.append(next(int(i) for i in np.argsort(-overlaps) if int(i) not in picks))
    return frame, tuple(picks)


def rap_diabatic_bound(cfg: ExperimentConfig) -> DiabaticBound | None:
    """Peak adiabaticity ratio of this transfer, a first-order estimate of
    its diabatic loss that leaves out the pulse-window edges.

    Only the reduced model's states coupled to ``|d..d,1>`` and ``|D,0>``
    are diagonalised (``reduced_model(..., around=_RAP_STATES)``): the pair
    ``{|d..d,1>, |D,0>}`` alone under ``zero_carrier``, the whole model when
    carrier couplings join the states.  The states left out are exactly
    decoupled, so on one grid the bound is the full model's; only the grid
    refinement follows the pair alone.
    Returns ``None`` when the avoided crossing is too sharp to resolve (the
    drive is effectively off and the crossing is real), where the ratio
    stops being meaningful.
    """
    try:
        frame, (i, j) = _rap_frame(reduced_model(cfg.rap_drive(), around=_RAP_STATES))
        return diabatic_bound(frame, i, j)
    except (ContinuityError, DegeneracyError):
        return None


@dataclass
class RapResult:
    """``populations`` maps each spin word to its probability, read off ``rho``."""

    evolution: EvolutionResult
    rho: InternalDensityMatrix
    fidelity: float
    bound: DiabaticBound | None
    populations: dict


def run_rap(cfg: ExperimentConfig) -> RapResult:
    """Preparation, entangling pulse, trace-out and fidelity in one call.

    With ``nbar > 0`` the initial motional state is a Fock-diagonal thermal
    mixture; each component is propagated as a pure state and the reduced
    density matrix is their weighted mixture.  Populations and fidelity are
    read from that one matrix.  The returned evolution is the dominant
    (n = 0) component's.
    """
    drive = cfg.rap_drive()
    space = cfg.space()
    finals = []
    for n, weight in cfg.thermal_components():
        finals.append((weight, evolve(drive, _prepare_from(cfg, n), dt=cfg.dt)))
    rho = trace_out_motion([(weight, res.final_state) for weight, res in finals])
    populations = {space.basis_state(s * space.n_fock)[0]: float(p)
                   for s, p in enumerate(rho.populations())}
    return RapResult(evolution=finals[0][1], rho=rho, fidelity=dicke_fidelity(rho),
                     bound=rap_diabatic_bound(cfg), populations=populations)


@dataclass
class SweepResult:
    """Per-point fidelity, bound and (two ions only) fidelity decomposition along one axis."""

    axis: str
    values: np.ndarray
    fidelity: np.ndarray
    diag_sum: np.ndarray
    offdiag: np.ndarray
    bound: np.ndarray
    errors: list
    partial: bool


def default_sweep_values(cfg: ExperimentConfig, axis: str, points: int = 15) -> np.ndarray:
    """Log-spaced decade centered on the config's full width 2 sigma or peak
    Rabi frequency; one point is the center itself."""
    center = 2.0 * cfg.sigma if axis == "width" else cfg.omega_peak
    if points == 1:
        return np.array([center])
    return np.geomspace(center / math.sqrt(10.0), center * math.sqrt(10.0), points)


def _config_at(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "width":
        return replace(cfg, sigma=value / 2.0)   # axis is the full width 2 sigma
    return replace(cfg, omega_peak=value)


def sweep(cfg: ExperimentConfig, axis: str, values=None) -> SweepResult:
    """Independent :func:`run_rap` per grid point; failures do not stop the sweep."""
    if axis not in ("width", "peak"):
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'width' or 'peak'")
    if values is None:
        values = default_sweep_values(cfg, axis)
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
        fid[k] = res.fidelity
        bound[k] = res.bound.value if res.bound is not None else np.nan
        if cfg.n_qubits != 2:
            continue
        diag[k], off[k] = fidelity_decomposition(res.rho)
        if not abs(fid[k] - (diag[k] / 2.0 + off[k] / 2.0)) < DECOMPOSITION_TOL:
            raise NumericsError(
                f"{axis}={value:.6g}: fidelity {fid[k]!r} != diag_sum/2 + offdiag/2 "
                f"= {diag[k] / 2.0 + off[k] / 2.0!r}")
    return SweepResult(axis=axis, values=values, fidelity=fid, diag_sum=diag,
                       offdiag=off, bound=bound, errors=errors,
                       partial=any(e is not None for e in errors))


@dataclass
class PotentialsVariant:
    energies: np.ndarray           # (n_times, d), d reduced-model states
    alpha_over_omega_sq: np.ndarray


@dataclass
class PotentialsReport:
    times: np.ndarray
    variants: dict


def potentials_report(cfg: ExperimentConfig) -> PotentialsReport:
    """Adiabatic energies and |alpha/omega|^2 with and without carrier couplings.

    Both variants (raw Hamiltonian and carrier terms zeroed) diagonalise the
    full reduced model, so every energy is reported, and are evaluated on
    the same grid so their curves compare point by point: the first variant's
    uniform ``DEFAULT_GRID_POINTS`` grid (refined automatically on
    branch-tracking failure), which the second reuses.
    """
    variants = {}
    times = None
    for name, comp in (("none", CompensationMode.none()),
                       ("zero_carrier", CompensationMode.zero_carrier())):
        model = reduced_model(replace(cfg.rap_drive(), compensation=comp))
        frame, (i, j) = _rap_frame(model, times)
        times = frame.times
        variants[name] = PotentialsVariant(energies=frame.energies,
                                           alpha_over_omega_sq=diabatic_ratio(frame, i, j))
    return PotentialsReport(times=times, variants=variants)
