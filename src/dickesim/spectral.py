"""Instantaneous eigen-analysis of time-dependent Hamiltonians.

Provides gauge-fixed adiabatic frames (branch-matched eigendecompositions on
a time grid), nonadiabatic couplings ``alpha_ji(t) = <j(t)| d/dt |i(t)>``,
the standard upper bound on diabatic-transition probability
``max |alpha_ji / omega_ji|^2``, and the reduced model of the chirped
red-sideband pulse: the drive Hamiltonian projected onto the symmetric
states with at most two excitations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, NamedTuple

import numpy as np

from .core import symmetric_transform
from .drive import DriveConfig, Sideband, drive_terms, envelope
from .errors import ContinuityError, DegeneracyError

CONTINUITY_MIN = 0.9
DEGENERACY_REL = 1e-13
OMEGA_FLOOR_REL = 1e-6

DEFAULT_GRID_POINTS = 2001
MAX_REFINEMENTS = 3


@dataclass
class AdiabaticFrame:
    """Branch-continuous eigendecomposition over a time grid.

    ``energies[k, i]`` and ``vectors[k, :, i]`` describe branch ``i`` at
    ``times[k]``; branches are ordered by ascending energy at ``times[0]``
    and then followed by maximum-overlap continuation.  Successive overlaps
    ``<v_i(t_k)|v_i(t_k+1)>`` are made real and positive (the gauge fix).
    """

    times: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    subspace_labels: list

    @property
    def n_branches(self) -> int:
        return self.energies.shape[1]


def _greedy_assignment(overlaps: np.ndarray) -> np.ndarray:
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


def adiabatic_spectrum(h_of_t: Callable[[float], np.ndarray], times,
                       basis_labels=None) -> AdiabaticFrame:
    """Diagonalize H(t) over a grid with branch matching and gauge fixing.

    Raises :class:`ContinuityError` when successive eigenvectors overlap by
    less than 0.9 (grid too coarse near an avoided crossing) and
    :class:`DegeneracyError` on an exactly degenerate grid point.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 3:
        raise ValueError("need a 1-d grid of at least 3 times")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")

    h0 = np.asarray(h_of_t(times[0]))
    dim = h0.shape[0]
    energies = np.empty((len(times), dim))
    vectors = np.empty((len(times), dim, dim), dtype=h0.dtype)

    for k, t in enumerate(times):
        h = np.asarray(h_of_t(t)) if k else h0
        w, v = np.linalg.eigh(h)
        scale = max(1.0, float(np.max(np.abs(w))))
        gaps = np.diff(w)
        if np.any(gaps <= DEGENERACY_REL * scale):
            raise DegeneracyError(
                f"exactly degenerate eigenvalues at t={t:.6e} s; branch gauge ambiguous",
                time=float(t),
            )
        if k == 0:
            energies[0], vectors[0] = w, v
            continue
        overlap = np.abs(vectors[k - 1].conj().T @ v)
        cols = _greedy_assignment(overlap)
        diag = overlap[np.arange(dim), cols]
        if np.any(diag <= CONTINUITY_MIN):
            worst = int(np.argmin(diag))
            raise ContinuityError(
                f"branch {worst} overlap {diag[worst]:.3f} <= {CONTINUITY_MIN} between "
                f"t={times[k-1]:.6e} and t={t:.6e}; refine the grid"
            )
        w, v = w[cols], v[:, cols]
        # gauge: successive overlaps real positive
        raw = np.sum(vectors[k - 1].conj() * v, axis=0)
        v = v * np.exp(-1j * np.angle(raw)) if np.iscomplexobj(v) else v * np.sign(raw)
        energies[k], vectors[k] = w, v

    labels = []
    for i in range(dim):
        j = int(np.argmax(np.abs(vectors[0][:, i])))
        labels.append(basis_labels[j] if basis_labels is not None else f"e{j}")
    return AdiabaticFrame(times=times, energies=energies, vectors=vectors,
                          subspace_labels=labels)


def spectrum_with_refinement(h_of_t, t_start: float, t_end: float,
                             n_points: int = DEFAULT_GRID_POINTS,
                             basis_labels=None,
                             max_refinements: int = MAX_REFINEMENTS) -> AdiabaticFrame:
    """adiabatic_spectrum on a uniform grid, doubling density on continuity failure."""
    last = None
    for _ in range(max_refinements + 1):
        times = np.linspace(t_start, t_end, n_points)
        try:
            return adiabatic_spectrum(h_of_t, times, basis_labels=basis_labels)
        except ContinuityError as exc:
            last = exc
            n_points = 2 * (n_points - 1) + 1
    raise last


def nonadiabatic_coupling(frame: AdiabaticFrame, i: int, j: int) -> np.ndarray:
    """``alpha_ji(t) = <j(t)| d/dt |i(t)>`` by finite differences on the frame.

    Central differences at interior points, one-sided at the ends.  The
    result is real for the real-symmetric Hamiltonians used here; a complex
    frame contributes only its real part.
    """
    if i == j:
        raise ValueError("nonadiabatic coupling needs two distinct branches")
    vi = frame.vectors[:, :, i]
    vj = frame.vectors[:, :, j]
    t = frame.times
    n = len(t)
    alpha = np.empty(n)
    dvi = np.empty_like(vi)
    dvi[1:-1] = (vi[2:] - vi[:-2]) / (t[2:] - t[:-2])[:, None]
    dvi[0] = (vi[1] - vi[0]) / (t[1] - t[0])
    dvi[-1] = (vi[-1] - vi[-2]) / (t[-1] - t[-2])
    alpha[:] = np.real(np.sum(vj.conj() * dvi, axis=1))
    return alpha


class DiabaticBound(NamedTuple):
    value: float
    time: float


def diabatic_bound(frame: AdiabaticFrame, i: int, j: int) -> DiabaticBound:
    """Transition-probability bound ``max_t |alpha_ji / omega_ji|^2`` and its argmax.

    Rejects frames where the branch gap collapses below 1e-6 of its maximum,
    where the bound stops being meaningful.
    """
    omega = frame.energies[:, j] - frame.energies[:, i]
    omega_scale = float(np.max(np.abs(omega)))
    if omega_scale == 0.0 or np.min(np.abs(omega)) < OMEGA_FLOOR_REL * omega_scale:
        raise DegeneracyError(
            "branch gap nearly closes on the grid; diabatic bound unreliable"
        )
    ratio = np.abs(nonadiabatic_coupling(frame, i, j) / omega) ** 2
    k = int(np.argmax(ratio))
    return DiabaticBound(value=float(ratio[k]), time=float(frame.times[k]))


@dataclass
class ReducedModel:
    """``drive_terms`` projected onto symmetric states of a red-sideband drive.

    ``states[k] = (m, n)`` is the uniform superposition of all spin words
    with m ions up (the Dicke state) times ``|n>``, for n <= 1, m + n <= 2
    and m <= N; for two ions these are ``|dd,0>, |dd,1>, |D,0>, |D,1>,
    |uu,0>``.  ``terms`` holds the projected coefficient matrices, so
    ``h_at(t) = P0 - delta_c(t) P1 + Omega(t) P2 + Omega(t)^2 P3`` like the
    full Hamiltonian.  The projection is exact for symmetric illumination;
    with unequal weights or offsets it keeps their means.
    """

    drive: DriveConfig
    states: tuple
    labels: tuple
    terms: np.ndarray

    def h_at(self, t: float) -> np.ndarray:
        om = float(envelope(self.drive.pulse, t))
        dc = float(self.drive.carrier_detuning(t))
        p0, p1, p2, p3 = self.terms
        return p0 - dc * p1 + om * p2 + om * om * p3


def reduced_model(drive: DriveConfig) -> ReducedModel:
    """Project the drive's Hamiltonian onto the symmetric low-excitation states.

    Requires a red-sideband drive and ``n_max >= 1``.
    """
    if drive.sideband is not Sideband.RED:
        raise ValueError("the reduced model describes a red-sideband drive")
    space = drive.space
    if space.n_max < 1:
        raise ValueError("the reduced model needs n_max >= 1")
    n_qubits = space.n_qubits
    states = tuple((m, n) for m in range(min(n_qubits, 2) + 1)
                   for n in range(2) if m + n <= 2)
    # column of the uniform vector of each up count in symmetric_transform
    first = np.cumsum([0] + [comb(n_qubits, m) for m in range(n_qubits)])
    uniform = symmetric_transform(n_qubits)[:, first]
    fock = np.eye(space.n_fock)
    proj = np.column_stack([np.kron(uniform[:, m], fock[n]) for m, n in states])
    terms = np.stack([proj.T @ s @ proj for s in drive_terms(drive)])
    words = {0: "d" * n_qubits, 1: "D", n_qubits: "u" * n_qubits}
    labels = tuple(f"|{words.get(m, f'D{m}')},{n}>" for m, n in states)
    return ReducedModel(drive=drive, states=states, labels=labels, terms=terms)
