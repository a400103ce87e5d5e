"""Time-dependent drive model: pulse envelope, chirp, rotating-frame Hamiltonian.

All frequencies in this module are angular (rad/s) and hbar = 1; the CLI layer
converts from ordinary kHz / microsecond config keys once at the boundary.

Conventions
-----------
The chirp in :class:`PulseShape` is the detuning from the *selected
transition's* resonance (red sideband for the entangling pulse).  The
rotating-frame Hamiltonian is written in terms of the carrier detuning

    delta_c(t) = chirp(t) - omega_v   (RED)
               = chirp(t) + omega_v   (BLUE)
               = chirp(t)             (CARRIER)

and reads, per ion j with weight w_j and static offset o_j,

    H(t) = -sum_j (delta_c(t) + o_j) |u><u|_j + omega_v a'a
           + sum_j w_j Omega(t) [ (1/2) sigma_x_j + (eta/2)(sideband term) ]

where the sideband term is ``sigma+_j a + h.c.`` (RED) or ``sigma+_j a' +
h.c.`` (BLUE); a CARRIER drive keeps only the sigma_x coupling.  The
zeroth-order carrier term is what produces the time-dependent level shifts
during sideband pulses; compensation modes modify it:

* ``NONE``        keep the raw Hamiltonian;
* ``ZERO_CARRIER`` drop the sigma_x terms of a sideband drive entirely
  (idealized, perfectly compensated shifts);
* ``EFFECTIVE``   keep the carrier terms and add the deterministic diagonal
  counter-shift of a second off-resonant tone,
  ``-sum_j s_j(t)|u><u|_j`` with ``s_j(t) = power_ratio * (w_j Omega(t))^2
  / (4 * comp_detuning)``.

Compensation applies to sideband drives only; it never modifies a CARRIER
drive, whose sigma_x coupling is the intended interaction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import HilbertSpace

TWO_PI = 2.0 * math.pi

# CODATA values; used only to derive the Lamb-Dicke parameter.
HBAR = 1.054571817e-34
ATOMIC_MASS_KG = 1.66053906660e-27

DEFAULT_DURATION_FACTOR = 2.36


class Sideband(enum.Enum):
    RED = "red"
    BLUE = "blue"
    CARRIER = "carrier"


class CompensationKind(enum.Enum):
    NONE = "none"
    ZERO_CARRIER = "zero_carrier"
    EFFECTIVE = "effective"


@dataclass(frozen=True)
class CompensationMode:
    """Carrier-shift handling; see the module docstring for the three modes."""

    kind: CompensationKind
    power_ratio: float = 0.60
    comp_detuning: float = TWO_PI * 400e3

    def __post_init__(self):
        if self.kind is CompensationKind.EFFECTIVE:
            if not 0.0 < self.power_ratio <= 1.0:
                raise ValueError(f"power_ratio must be in (0, 1], got {self.power_ratio}")
            if self.comp_detuning == 0.0:
                raise ValueError("comp_detuning must be nonzero in EFFECTIVE mode")

    @classmethod
    def none(cls) -> "CompensationMode":
        return cls(CompensationKind.NONE)

    @classmethod
    def zero_carrier(cls) -> "CompensationMode":
        return cls(CompensationKind.ZERO_CARRIER)

    @classmethod
    def effective(cls, power_ratio: float = 0.60,
                  comp_detuning: float = TWO_PI * 400e3) -> "CompensationMode":
        return cls(CompensationKind.EFFECTIVE, power_ratio, comp_detuning)


@dataclass(frozen=True)
class PulseShape:
    """Gaussian envelope with a linear frequency chirp.

    ``Omega(t) = omega_peak * exp(-(t - T/2)^2 / (2 sigma^2))`` over the
    window ``[0, T]`` with ``T = duration_factor * 2 sigma``; the envelope is
    truncated (not renormalized) outside.  ``sigma = math.inf`` degenerates
    to a flat envelope, used for analytic pi pulses; such a shape has no
    intrinsic duration and the caller must supply one.
    """

    omega_peak: float
    sigma: float
    duration_factor: float = DEFAULT_DURATION_FACTOR
    chirp_start: float = 0.0
    chirp_end: float = 0.0

    def __post_init__(self):
        if self.omega_peak < 0:
            raise ValueError(f"omega_peak must be >= 0, got {self.omega_peak}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not self.duration_factor > 0:
            raise ValueError(f"duration_factor must be > 0, got {self.duration_factor}")

    @property
    def duration(self) -> float:
        return self.duration_factor * 2.0 * self.sigma

    @classmethod
    def flat(cls, omega: float) -> "PulseShape":
        """Constant-amplitude resonant pulse (for analytic pi pulses)."""
        return cls(omega_peak=omega, sigma=math.inf)


def envelope(pulse: PulseShape, t) -> np.ndarray | float:
    """Rabi envelope Omega(t); peaks at the window center, 0 outside it."""
    t = np.asarray(t, dtype=float)
    duration = pulse.duration
    if math.isinf(pulse.sigma):
        value = np.full_like(t, pulse.omega_peak)
    else:
        x = (t - duration / 2.0) / pulse.sigma
        value = pulse.omega_peak * np.exp(-0.5 * x * x)
        value = np.where((t < 0.0) | (t > duration), 0.0, value)
    return value if value.ndim else float(value)


def detuning(pulse: PulseShape, t) -> np.ndarray | float:
    """Linear chirp from ``chirp_start`` to ``chirp_end`` over the window."""
    t = np.asarray(t, dtype=float)
    duration = pulse.duration
    if math.isinf(duration):
        value = np.full_like(t, 0.5 * (pulse.chirp_start + pulse.chirp_end))
    else:
        frac = np.clip(t / duration, 0.0, 1.0)
        value = pulse.chirp_start + (pulse.chirp_end - pulse.chirp_start) * frac
    return value if value.ndim else float(value)


def derive_eta(wavelength: float, mass_amu: float, omega_v: float,
               n_ions: int, beam_angle: float = 0.0) -> float:
    """Lamb-Dicke parameter of the COM mode for an N-ion string.

    ``eta = k cos(beam_angle) sqrt(hbar / (2 N m omega_v))`` with k the
    optical wavenumber; the COM-mode effective mass is N times the ion mass.
    """
    if wavelength <= 0 or mass_amu <= 0 or omega_v <= 0 or n_ions < 1:
        raise ValueError("wavelength, mass, omega_v must be positive; n_ions >= 1")
    k = TWO_PI / wavelength
    x0 = math.sqrt(HBAR / (2.0 * n_ions * mass_amu * ATOMIC_MASS_KG * omega_v))
    return k * math.cos(beam_angle) * x0


@dataclass(frozen=True)
class DriveConfig:
    """Everything needed to evaluate H(t) for one pulse on one space."""

    space: HilbertSpace
    eta: float
    omega_v: float
    pulse: PulseShape
    ion_weights: tuple = ()
    ion_detuning_offsets: tuple = ()
    sideband: Sideband = Sideband.RED
    compensation: CompensationMode = field(default_factory=CompensationMode.none)

    def __post_init__(self):
        if not 0.0 < self.eta < 0.3:
            raise ValueError(
                f"eta={self.eta} outside the Lamb-Dicke window (0, 0.3) assumed by "
                "the first-order sideband expansion"
            )
        if self.omega_v <= 0:
            raise ValueError(f"omega_v must be > 0, got {self.omega_v}")
        n = self.space.n_qubits
        weights = tuple(self.ion_weights) if self.ion_weights else (1.0,) * n
        offsets = tuple(self.ion_detuning_offsets) if self.ion_detuning_offsets else (0.0,) * n
        if len(weights) != n:
            raise ValueError(f"ion_weights has {len(weights)} entries for {n} ions")
        if len(offsets) != n:
            raise ValueError(f"ion_detuning_offsets has {len(offsets)} entries for {n} ions")
        if any(not 0.0 <= w <= 1.0 for w in weights):
            raise ValueError(f"ion weights must lie in [0, 1], got {weights}")
        object.__setattr__(self, "ion_weights", weights)
        object.__setattr__(self, "ion_detuning_offsets", offsets)

    @property
    def carrier_offset(self) -> float:
        """Shift converting the chirp into a carrier detuning."""
        if self.sideband is Sideband.RED:
            return -self.omega_v
        if self.sideband is Sideband.BLUE:
            return +self.omega_v
        return 0.0

    def carrier_detuning(self, t):
        return detuning(self.pulse, t) + self.carrier_offset

    @property
    def total_peak_rabi(self) -> float:
        return self.pulse.omega_peak * sum(self.ion_weights)


@lru_cache(maxsize=64)
def drive_terms(cfg: DriveConfig):
    """Coefficient decomposition ``H(t) = S0 - delta_c(t) S1 + Omega(t) S2 + Omega(t)^2 S3``.

    All four matrices are real symmetric and time independent; the propagator
    assembles many time slices from them at once.  S1 is the up-state number
    operator; S3 is zero except in EFFECTIVE compensation.  The returned
    arrays are cached and marked read-only.
    """
    space = cfg.space
    dim = space.dim
    s0 = cfg.omega_v * space.fock_number
    for j, off in enumerate(cfg.ion_detuning_offsets):
        if off != 0.0:
            s0 = s0 - off * space.up_projector(j)

    s1 = space.atom_number.copy()

    s2 = np.zeros((dim, dim))
    keep_carrier = (
        cfg.sideband is Sideband.CARRIER
        or cfg.compensation.kind is not CompensationKind.ZERO_CARRIER
    )
    for j, w in enumerate(cfg.ion_weights):
        if w == 0.0:
            continue
        if keep_carrier:
            s2 += (w / 2.0) * space.sigma_x(j)
        if cfg.sideband is Sideband.RED:
            half = space.sigma_plus(j) @ space.annihilation
            s2 += (w * cfg.eta / 2.0) * (half + half.T)
        elif cfg.sideband is Sideband.BLUE:
            half = space.sigma_plus(j) @ space.annihilation.T
            s2 += (w * cfg.eta / 2.0) * (half + half.T)

    s3 = np.zeros((dim, dim))
    if (cfg.compensation.kind is CompensationKind.EFFECTIVE
            and cfg.sideband is not Sideband.CARRIER):
        comp = cfg.compensation
        for j, w in enumerate(cfg.ion_weights):
            s3 -= (comp.power_ratio * w * w / (4.0 * comp.comp_detuning)) * space.up_projector(j)

    terms = (np.ascontiguousarray(s0), s1, s2, s3)
    for m in terms:
        m.setflags(write=False)
    return terms


def hamiltonian_matrix(cfg: DriveConfig, t: float) -> np.ndarray:
    """Raw real-symmetric H(t) as an ndarray (rad/s)."""
    s0, s1, s2, s3 = drive_terms(cfg)
    om = envelope(cfg.pulse, t)
    dc = cfg.carrier_detuning(t)
    return s0 - dc * s1 + om * s2 + om * om * s3
