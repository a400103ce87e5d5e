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

:func:`drive_terms` is the one place that builds H, as spin (x) Fock factors
(:class:`DriveTerms`); nothing builds it on the full space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import HilbertSpace, spin_bits

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
    def effective(cls, *args, **kwargs) -> "CompensationMode":
        """``EFFECTIVE`` mode; ``power_ratio`` and ``comp_detuning`` as for the class."""
        return cls(CompensationKind.EFFECTIVE, *args, **kwargs)


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
    """Everything needed to evaluate H(t) for one pulse on one space.

    ``ion_weights`` and ``ion_detuning_offsets`` hold one entry per ion;
    :class:`dickesim.experiment.ExperimentConfig` fills in their defaults.
    """

    space: HilbertSpace
    eta: float
    omega_v: float
    pulse: PulseShape
    ion_weights: tuple
    ion_detuning_offsets: tuple
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
        weights, offsets = tuple(self.ion_weights), tuple(self.ion_detuning_offsets)
        if len(weights) != n:
            raise ValueError(f"ion_weights has {len(weights)} entries for {n} ions")
        if len(offsets) != n:
            raise ValueError(f"ion_detuning_offsets has {len(offsets)} entries for {n} ions")
        if any(not 0.0 <= w <= 1.0 for w in weights):
            raise ValueError(f"ion_weights must lie in [0, 1], got {weights}")
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

    @property
    def carrier_coupled(self) -> bool:
        """Whether H keeps the sigma_x carrier couplings: all but ZERO_CARRIER sideband drives."""
        return (self.sideband is Sideband.CARRIER
                or self.compensation.kind is not CompensationKind.ZERO_CARRIER)


@dataclass(frozen=True, eq=False)
class DriveTerms:
    """The drive Hamiltonian as spin (x) Fock factors::

        H(t) = omega_v 1(x)n + sum_k c_k(t) H_k(x)1 + Omega(t) (J(x)L + J^T(x)L^T)

    with ``c(t) = (1, -delta_c(t), Omega(t), Omega(t)^2)`` (:func:`coefficients`).
    ``internal`` stacks H_0..H_3 (2**N x 2**N each): the static offsets, the
    up-state number, the carrier couplings and the EFFECTIVE counter-shift.
    ``sideband`` is ``J = (eta/2) sum_j w_j sigma+_j`` (zero for a carrier
    drive) and ``ladder`` its Fock factor L: ``a`` (RED) or ``a'`` (BLUE).
    The dense terms of ``H = S0 - delta_c S1 + Omega S2 + Omega^2 S3`` are
    ``S0 = omega_v 1(x)n + H_0(x)1``, ``S2 = H_2(x)1 + J(x)L + J^T(x)L^T`` and
    ``S_k = H_k(x)1`` otherwise.  Only the sideband coupling changes the
    Fock number, and every Fock level n carries ``H_int(t) + omega_v n``:
    the record has no slot for a term that would break this.  The arrays are
    read-only.
    """

    internal: np.ndarray
    sideband: np.ndarray
    ladder: np.ndarray
    omega_v: float

    def __post_init__(self):
        for factor in (self.internal, self.sideband, self.ladder):
            factor.setflags(write=False)

    def rotated(self, transform: np.ndarray) -> "DriveTerms":
        """The spin factors ``T^T X T`` for any orthonormal columns T of ``transform``:
        a whole basis keeps H, some of its columns project H onto their span."""
        return DriveTerms(transform.T @ self.internal @ transform,
                          transform.T @ self.sideband @ transform, self.ladder, self.omega_v)

    def coupling(self, spins, levels) -> np.ndarray:
        """The Fock-changing part of S2, ``R = J(x)L + J^T(x)L^T``, as one (k, k)
        matrix on the basis states ``(spins[i], levels[i])``."""
        spins, levels = np.asarray(spins), np.asarray(levels)
        coupling = self.sideband[np.ix_(spins, spins)] * self.ladder[np.ix_(levels, levels)]
        return coupling + coupling.T

    def assemble(self, spins, levels) -> np.ndarray:
        """Dense (4, k, k) terms S0..S3 on the basis states ``(spins[i], levels[i])``."""
        spins, levels = np.asarray(spins), np.asarray(levels)
        same = levels[:, None] == levels[None, :]
        terms = np.where(same, self.internal[:, spins[:, None], spins], 0.0)
        terms[0] += np.diag(self.omega_v * levels)
        terms[2] += self.coupling(spins, levels)
        return terms


def drive_terms(cfg: DriveConfig) -> DriveTerms:
    """The factors of ``H(t) = S0 - delta_c(t) S1 + Omega(t) S2 + Omega(t)^2 S3``.

    See :class:`DriveTerms`; every factor is real and time independent.
    """
    n, n_fock = cfg.space.n_qubits, cfg.space.n_fock
    up = spin_bits(n)

    h0 = np.zeros(2**n)
    for j, off in enumerate(cfg.ion_detuning_offsets):
        h0 -= off * up[:, j]

    h2 = np.zeros((2**n, 2**n))
    sideband = np.zeros((2**n, 2**n))
    for j, w in enumerate(cfg.ion_weights):
        if w == 0.0:
            continue
        # raising ion j maps the states with j down, in order, onto those with j up
        down, flipped = np.flatnonzero(up[:, j] == 0), np.flatnonzero(up[:, j])
        if cfg.carrier_coupled:
            h2[flipped, down] = h2[down, flipped] = w / 2.0
        if cfg.sideband is not Sideband.CARRIER:
            sideband[flipped, down] = w * cfg.eta / 2.0

    h3 = np.zeros(2**n)
    if (cfg.compensation.kind is CompensationKind.EFFECTIVE
            and cfg.sideband is not Sideband.CARRIER):
        comp = cfg.compensation
        for j, w in enumerate(cfg.ion_weights):
            h3 -= (comp.power_ratio * w * w / (4.0 * comp.comp_detuning)) * up[:, j]

    internal = np.stack([np.diag(h0), np.diag(up.sum(axis=1).astype(float)), h2, np.diag(h3)])
    lower = np.diag(np.sqrt(np.arange(1, n_fock)), 1)
    ladder = lower.T if cfg.sideband is Sideband.BLUE else lower
    return DriveTerms(internal, sideband, ladder, cfg.omega_v)


def coefficients(cfg: DriveConfig, t) -> np.ndarray:
    """Weights ``(1, -delta_c(t), Omega(t), Omega(t)^2)`` of the :func:`drive_terms`.

    One row of four at a scalar time, ``(K, 4)`` at a 1-d array of K times.
    """
    om = envelope(cfg.pulse, t)
    rows = np.empty(np.shape(om) + (4,))
    rows[..., 0] = 1.0
    rows[..., 1] = -cfg.carrier_detuning(t)
    rows[..., 2] = om
    rows[..., 3] = om * om
    return rows
