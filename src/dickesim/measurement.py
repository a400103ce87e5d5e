"""Two-ion measurement pipeline: density matrix, populations, parity, readout.

The reduced internal-state density matrix lives on the spin basis
``(dd, du, ud, uu)``.  A global analysis pulse is the simultaneous pi/2
rotation ``R(phi) = exp[-i (pi/4) (sigma_phi x 1 + 1 x sigma_phi)]`` with
``sigma_phi = cos(phi) sigma_x + sin(phi) sigma_y``; the state transforms as
``rho -> R' rho R``.  With that convention the parity after rotation obeys
the closed form

    Pi(phi) = 2 [ Re rho_du,ud - Re rho_dd,uu cos(2 phi)
                  + Im rho_dd,uu sin(2 phi) ],

which :func:`parity_curve` verifies against the operator computation on
every call.  Fluorescence readout is modeled as Poisson counts with one
bright level per down ion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StateVector

SPIN_ORDER = ("dd", "du", "ud", "uu")

TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
CLOSED_FORM_TOL = 1e-8

#: Mean fluorescence counts per bright (down) ion and detector background.
BRIGHT_MEAN = 70.0
BACKGROUND_MEAN = 0.5
DEFAULT_THRESHOLDS = (35, 105)

_PARITY_DIAG = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass
class InternalDensityMatrix:
    """4x4 density matrix over (dd, du, ud, uu); motion traced out."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {self.matrix.shape}")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > TRACE_TOL:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(self.matrix)).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr:.12g} deviates from 1")
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {evals.min():.3e}")

    def element(self, bra: str, ket: str) -> complex:
        return complex(self.matrix[SPIN_ORDER.index(bra), SPIN_ORDER.index(ket)])

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


def trace_out_motion(psi: StateVector) -> InternalDensityMatrix:
    """Partial trace over the motional mode (two ions)."""
    space = psi.space
    if space.n_qubits != 2:
        raise ValueError("internal density matrix is defined for two ions")
    amp = psi.amplitudes.reshape(4, space.n_fock)
    return InternalDensityMatrix(amp @ amp.conj().T)


def _sigma_phi(phi: float) -> np.ndarray:
    # (d, u) ordering: sigma_x = |u><d| + |d><u|, sigma_y = i|u><d| - i|d><u|
    return np.array([[0.0, np.cos(phi) - 1j * np.sin(phi)],
                     [np.cos(phi) + 1j * np.sin(phi), 0.0]])


def rotation_matrix(phi: float) -> np.ndarray:
    """Global pi/2 analysis rotation on both ions."""
    s = _sigma_phi(phi)
    r1 = (np.eye(2) - 1j * s) / np.sqrt(2.0)
    return np.kron(r1, r1)


def rotate_global(rho: InternalDensityMatrix, phi: float) -> InternalDensityMatrix:
    """State after the analysis pulse: ``rho -> R(phi)' rho R(phi)``."""
    r = rotation_matrix(phi)
    return InternalDensityMatrix(r.conj().T @ rho.matrix @ r)


def parity(rho: InternalDensityMatrix) -> float:
    """``<Pi>`` with ``Pi = P_dd + P_uu - P_du - P_ud``."""
    return float(np.real(np.sum(_PARITY_DIAG * np.diag(rho.matrix))))


def parity_closed_form(rho: InternalDensityMatrix, phi) -> np.ndarray | float:
    """Closed-form Pi(phi); see the module docstring."""
    phi = np.asarray(phi, dtype=float)
    m = rho.matrix
    value = 2.0 * (np.real(m[1, 2]) - np.real(m[0, 3]) * np.cos(2 * phi)
                   + np.imag(m[0, 3]) * np.sin(2 * phi))
    return value if value.ndim else float(value)


def parity_curve(rho: InternalDensityMatrix, phi_grid) -> list:
    """Parity after rotation for each phase, cross-checked two ways.

    Every point is computed through the rotation operator and through the
    closed form; a mismatch beyond 1e-8 signals a rotation-convention bug
    and raises.
    """
    phi_grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    if phi_grid.size == 0:
        raise ValueError("phase grid is empty")
    points = []
    for phi in phi_grid:
        operator_value = parity(rotate_global(rho, float(phi)))
        closed = parity_closed_form(rho, float(phi))
        if abs(operator_value - closed) > CLOSED_FORM_TOL:
            raise RuntimeError(
                f"parity mismatch at phi={phi:.6f}: operator {operator_value:.12g} "
                f"vs closed form {closed:.12g}"
            )
        points.append((float(phi), operator_value))
    return points


@dataclass
class ParityFit:
    """Least-squares fit of Pi(phi) to ``a + b cos(2 phi) + c sin(2 phi)``."""

    offset: float
    cos_amp: float
    sin_amp: float
    residual_rms: float


def fit_parity(samples) -> ParityFit:
    """Linear least squares on the basis ``{1, cos 2phi, sin 2phi}``.

    The offset estimates ``2 Re(rho_du,ud)``.  Requires at least three
    phases not all equal modulo pi.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("need at least 3 samples to fit three coefficients")
    phi = np.array([p for p, _ in samples], dtype=float)
    y = np.array([v for _, v in samples], dtype=float)
    design = np.column_stack([np.ones_like(phi), np.cos(2 * phi), np.sin(2 * phi)])
    if np.linalg.matrix_rank(design) < 3:
        raise ValueError("phases are degenerate modulo pi; cannot separate coefficients")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return ParityFit(offset=float(coef[0]), cos_amp=float(coef[1]),
                     sin_amp=float(coef[2]), residual_rms=rms)


def simulate_histogram(populations, shots: int, seed: int,
                       bright_mean: float = BRIGHT_MEAN,
                       background: float = BACKGROUND_MEAN) -> np.ndarray:
    """Sampled fluorescence-count histogram for projective readout.

    ``populations = (P_dd, P_du + P_ud, P_uu)``; down ions fluoresce, so the
    three classes produce Poisson counts with means ``background + 2 b``,
    ``background + b`` and ``background``.  Returns integer frequencies
    indexed by count value (``hist[c]`` = number of shots with c counts).
    """
    populations = np.asarray(populations, dtype=float)
    if populations.shape != (3,):
        raise ValueError("populations must be (P_dd, P_mid, P_uu)")
    if np.any(populations < 0):
        raise ValueError(f"negative populations: {populations}")
    if abs(populations.sum() - 1.0) > 1e-9:
        raise ValueError(f"populations sum to {populations.sum():.12g}, not 1")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    means = background + bright_mean * np.array([2.0, 1.0, 0.0])
    classes = rng.choice(3, size=shots, p=populations)
    counts = rng.poisson(means[classes])
    return np.bincount(counts)


def threshold_estimate(histogram, thresholds=DEFAULT_THRESHOLDS) -> np.ndarray:
    """Class fractions (P_dd, P_mid, P_uu) from count thresholds.

    Counts ``<= low`` are dark (both ions up), counts in ``(low, high]`` one
    bright ion, counts ``> high`` two bright ions; boundaries classify by the
    ``<=`` convention.
    """
    low, high = thresholds
    if not low < high:
        raise ValueError(f"need low < high thresholds, got {thresholds}")
    histogram = np.asarray(histogram)
    total = int(histogram.sum())
    if total == 0:
        raise ValueError("histogram is empty")
    values = np.arange(len(histogram))
    n_uu = int(histogram[values <= low].sum())
    n_mid = int(histogram[(values > low) & (values <= high)].sum())
    n_dd = total - n_uu - n_mid
    return np.array([n_dd, n_mid, n_uu], dtype=float) / total


def random_density_matrix(rng: np.random.Generator) -> InternalDensityMatrix:
    """Random valid state via the normalized A A' construction."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return InternalDensityMatrix(m / np.trace(m).real)
