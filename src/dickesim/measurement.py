"""Measurement: the N-ion reduced state, two-ion parity, fluorescence readout.

The reduced internal-state density matrix of N ions lives on the 2**N spin
words in the core basis order (``dd, du, ud, uu`` for two ions); every
readout (populations, Dicke fidelity, readout classes) is taken from it.
The spin layout and the Dicke states are core's: the fidelity reads
:func:`dickesim.core.dicke_vector` directly, and the readout classes are the
populations summed by the up counts of :func:`dickesim.core.spin_bits`.
A global analysis pulse on two ions is the simultaneous pi/2 rotation
``R(phi) = exp[-i (pi/4) (sigma_phi x 1 + 1 x sigma_phi)]`` with
``sigma_phi = cos(phi) sigma_x + sin(phi) sigma_y``; the state transforms as
``rho -> R' rho R``.  With that convention the parity after rotation obeys
the closed form

    Pi(phi) = 2 [ Re rho_du,ud - Re rho_dd,uu cos(2 phi)
                  + Im rho_dd,uu sin(2 phi) ],

which :func:`parity_curve` checks on every call against the operator values
it batches over the phase grid (two ions only).  Fluorescence readout is
modeled as Poisson counts with one bright level per down ion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StateVector, dicke_vector
from .errors import NumericsError

TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
CLOSED_FORM_TOL = 1e-8

#: Mean fluorescence counts per bright (down) ion and detector background.
BRIGHT_MEAN = 70.0
BACKGROUND_MEAN = 0.5


@dataclass
class InternalDensityMatrix:
    """2**N x 2**N density matrix over the spin words; motion traced out."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2 or shape[0] & (shape[0] - 1):
            raise ValueError(f"expected a 2**N x 2**N matrix, got shape {shape}")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > TRACE_TOL:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(self.matrix)).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr:.12g} deviates from 1")
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {evals.min():.3e}")

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


def trace_out_motion(state) -> InternalDensityMatrix:
    """Partial trace over the motional mode, for any ion number.

    ``state`` is a :class:`StateVector` or a mixture of states on one space
    given as ``[(weight, StateVector), ...]``; the result is
    ``sum_k weight_k Tr_motion |psi_k><psi_k|``.
    """
    mixture = [(1.0, state)] if isinstance(state, StateVector) else list(state)
    if not mixture:
        raise ValueError("the mixture has no states")
    space = mixture[0][1].space
    matrix = np.zeros((2**space.n_qubits,) * 2, dtype=complex)
    for weight, psi in mixture:
        if psi.space != space:
            raise ValueError("the states of a mixture live in different spaces")
        amp = psi.amplitudes.reshape(2**space.n_qubits, space.n_fock)
        matrix += weight * (amp @ amp.conj().T)
    return InternalDensityMatrix(matrix)


def dicke_fidelity(rho: InternalDensityMatrix, m: int = 1) -> float:
    """``<D_N^(m)| rho |D_N^(m)>`` for the reduced state of any ion number N.

    Raises ``ValueError`` for m outside ``[0, N]``.
    """
    d = dicke_vector(rho.n_qubits, m)
    return float(np.real(d @ rho.matrix @ d))


def fidelity_decomposition(rho: InternalDensityMatrix) -> tuple:
    """Two-ion ``(diag_sum, offdiag)`` = ``(rho_du,du + rho_ud,ud, 2 Re rho_du,ud)``.

    The Dicke fidelity of two ions is ``diag_sum/2 + offdiag/2``.
    """
    if rho.n_qubits != 2:
        raise ValueError("the fidelity decomposition is defined for two ions, "
                         f"got {rho.n_qubits}")
    m = rho.matrix
    return float(np.real(m[1, 1] + m[2, 2])), float(2.0 * np.real(m[1, 2]))


def _rotations(phi: np.ndarray) -> np.ndarray:
    """Stack of global pi/2 analysis rotations ``R(phi_k)``, shape ``(K, 4, 4)``."""
    # (d, u) ordering: sigma_x = |u><d| + |d><u|, sigma_y = i|u><d| - i|d><u|
    sigma = np.zeros((phi.size, 2, 2), dtype=complex)
    sigma[:, 0, 1] = np.cos(phi) - 1j * np.sin(phi)
    sigma[:, 1, 0] = np.cos(phi) + 1j * np.sin(phi)
    r1 = (np.eye(2) - 1j * sigma) / np.sqrt(2.0)
    # r1 (x) r1 from the elementwise products np.kron takes, so R equals it bit for bit
    return (r1[:, :, None, :, None] * r1[:, None, :, None, :]).reshape(-1, 4, 4)


def parity_closed_form(rho: InternalDensityMatrix, phi) -> np.ndarray | float:
    """Closed-form Pi(phi); see the module docstring."""
    phi = np.asarray(phi, dtype=float)
    m = rho.matrix
    value = 2.0 * (np.real(m[1, 2]) - np.real(m[0, 3]) * np.cos(2 * phi)
                   + np.imag(m[0, 3]) * np.sin(2 * phi))
    return value if value.ndim else float(value)


@dataclass
class ParityCurve:
    """Rotated ``(P_dd, P_du, P_ud, P_uu)`` and exact parity, one row per phase."""

    phi: np.ndarray
    populations: np.ndarray
    values: np.ndarray


def parity_curve(rho: InternalDensityMatrix, phi_grid) -> ParityCurve:
    """Parity after the analysis pulse for each phase, cross-checked two ways.

    One stacked product ``R_k' rho R_k`` gives the rotated populations of
    every phase; the parity read from them is checked against the closed
    form, and a mismatch beyond 1e-8 signals a rotation-convention bug and
    raises :class:`NumericsError`.
    """
    if rho.n_qubits != 2:
        raise ValueError(f"parity is defined for two ions, got {rho.n_qubits}")
    phi = np.asarray(phi_grid, dtype=float).ravel()
    if phi.size == 0:
        raise ValueError("phase grid is empty")
    r = _rotations(phi)
    rotated = r.conj().transpose(0, 2, 1) @ rho.matrix @ r
    populations = np.real(np.diagonal(rotated, axis1=1, axis2=2)).copy()
    # Pi = P_dd + P_uu - P_du - P_ud, paired the way np.sum pairs four terms,
    # so the values match an np.sum over each rotated diagonal to the last bit
    p_dd, p_du, p_ud, p_uu = populations.T
    values = (p_dd - p_du) + (p_uu - p_ud)
    closed = parity_closed_form(rho, phi)
    mismatch = np.flatnonzero(np.abs(values - closed) > CLOSED_FORM_TOL)
    if mismatch.size:
        k = mismatch[0]
        raise NumericsError(
            f"parity mismatch at phi={phi[k]:.6f}: operator {values[k]:.12g} "
            f"vs closed form {closed[k]:.12g}"
        )
    return ParityCurve(phi=phi, populations=populations, values=values)


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


def simulate_histogram(populations, shots: int, seed: int) -> np.ndarray:
    """Sampled fluorescence-count histogram for projective readout of N ions.

    ``populations[m]`` (m = 0..N) is the probability that m ions are up;
    the other N - m are down and fluoresce, so class m gives Poisson counts
    with mean ``BACKGROUND_MEAN + (N - m) BRIGHT_MEAN``.  For two ions that is
    ``(P_dd, P_du + P_ud, P_uu)``.  Returns integer frequencies indexed by
    count value (``hist[c]`` = number of shots with c counts).
    """
    populations = np.asarray(populations, dtype=float)
    if populations.ndim != 1 or populations.size < 2:
        raise ValueError(f"populations must list N + 1 >= 2 classes, got {populations}")
    if np.any(populations < 0):
        raise ValueError(f"negative populations: {populations}")
    if abs(populations.sum() - 1.0) > 1e-9:
        raise ValueError(f"populations sum to {populations.sum():.12g}, not 1")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    n_ions = populations.size - 1
    means = BACKGROUND_MEAN + BRIGHT_MEAN * np.arange(n_ions, -1, -1.0)
    classes = rng.choice(n_ions + 1, size=shots, p=populations)
    counts = rng.poisson(means[classes])
    return np.bincount(counts)
