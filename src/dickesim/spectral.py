"""Instantaneous eigen-analysis of time-dependent Hamiltonians.

Provides adiabatic frames (branch-matched eigendecompositions of a real
symmetric H(t) on a time grid), nonadiabatic couplings
``alpha_ji(t) = <j(t)| d/dt |i(t)>``,
the ratio ``|alpha_ji / omega_ji|^2`` on the grid and its maximum (the peak
adiabaticity ratio, a first-order estimate that leaves out the pulse-window
edges: 1 - F exceeded it on 13 of 120 random ``zero_carrier`` drives, by up
to 21x), and the reduced model of the chirped red-sideband pulse: the drive
Hamiltonian projected onto the Dicke states with at most two excitations.
:meth:`ReducedModel.component` keeps the states coupled to a given set:
without carrier couplings the RAP pair ``{|d..d,1>, |D,0>}`` is a component
of its own, so the diabatic bound diagonalises two states, while the
potentials report diagonalises the full model.

The spectrum scan is one batched pass over the grid: one call of ``h_of_t``
for the stacked Hamiltonians, one batched ``eigh``, and one batched product
for the overlaps of consecutive eigenvector sets.  Each branch follows the
column of its largest overlap.  Because the columns are orthonormal, once
every such maximum exceeds ``CONTINUITY_MIN`` (> 1/sqrt 2) they form a
permutation, the one a greedy descending-overlap match picks.  Permutations
are composed only where the match is not the identity.  The eigenvectors
keep the signs ``eigh`` gives them: the couplings align each neighbour's
sign locally, and the diabatic ratio is a square, so no global gauge is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import dicke_columns
from .drive import DriveConfig, Sideband, coefficients, drive_terms
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
    and then followed by maximum-overlap continuation.  Each vector keeps the
    sign ``eigh`` gave it, so ``<v_i(t_k)|v_i(t_k+1)>`` may be negative.
    ``refinements`` counts the grid doublings :func:`spectrum_with_refinement`
    needed to track the branches (0 for a grid given directly).
    """

    times: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    refinements: int = 0


def adiabatic_spectrum(h_of_t: Callable[[np.ndarray], np.ndarray],
                       times) -> AdiabaticFrame:
    """Diagonalize a real symmetric H(t) over a grid with branch matching.

    ``h_of_t`` takes a 1-d array of K times and returns the stacked real
    Hamiltonians, shape ``(K, d, d)``; it is called once, for the whole grid.
    Raises :class:`ContinuityError` when successive eigenvectors overlap by
    at most 0.9 (grid too coarse near an avoided crossing) and
    :class:`DegeneracyError` on an exactly degenerate grid point, whichever
    comes first in time (the degeneracy when both occur at one point).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 3:
        raise ValueError("need a 1-d grid of at least 3 times")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")

    h = np.asarray(h_of_t(times))
    if h.ndim != 3 or h.shape[:2] != (len(times), h.shape[2]) or h.dtype.kind == "c":
        raise ValueError(f"h_of_t returned {h.dtype} shape {h.shape} for {len(times)} "
                         f"times; expected a real ({len(times)}, d, d) stack")
    dim = h.shape[2]
    w, v = np.linalg.eigh(h)
    del h   # the stacked H is as large as the eigenvectors; free it before the overlaps

    # step k joins grid point k to grid point k + 1
    mag = np.abs(v[:-1].swapaxes(1, 2) @ v[1:])
    # each raw column on the left follows its largest overlap on the right;
    # above 1/sqrt(2) these row maxima form the greedy permutation
    follow = np.argmax(mag, axis=2)
    best = np.take_along_axis(mag, follow[..., None], axis=2)[..., 0]

    # perms[k]: branch -> raw column at grid point k
    perms = np.empty((len(times), dim), dtype=np.intp)
    perm, last = np.arange(dim), 0
    for k in np.flatnonzero(np.any(follow != np.arange(dim), axis=1)):
        perms[last:k + 1] = perm
        perm = follow[k][perm]
        last = k + 1
    perms[last:] = perm

    scale = np.maximum(1.0, np.max(np.abs(w), axis=1))
    degenerate = np.any(np.diff(w, axis=1) <= DEGENERACY_REL * scale[:, None], axis=1)
    broken = np.any(best <= CONTINUITY_MIN, axis=1)
    # where each failure shows: a broken step at the grid point it reaches
    k_deg = int(np.argmax(degenerate)) if degenerate.any() else len(times)
    k_cont = int(np.argmax(broken)) + 1 if broken.any() else len(times)
    if k_deg < len(times) and k_deg <= k_cont:
        t = times[k_deg]
        raise DegeneracyError(
            f"exactly degenerate eigenvalues at t={t:.6e} s; branches ambiguous",
            time=float(t),
        )
    if k_cont < len(times):
        diag = best[k_cont - 1][perms[k_cont - 1]]
        worst = int(np.argmin(diag))
        raise ContinuityError(
            f"branch {worst} overlap {diag[worst]:.3f} <= {CONTINUITY_MIN} between "
            f"t={times[k_cont-1]:.6e} and t={times[k_cont]:.6e}; refine the grid"
        )

    return AdiabaticFrame(times=times, energies=np.take_along_axis(w, perms, axis=1),
                          vectors=np.take_along_axis(v, perms[:, None, :], axis=2))


def spectrum_with_refinement(h_of_t, t_start: float, t_end: float) -> AdiabaticFrame:
    """adiabatic_spectrum on a uniform ``DEFAULT_GRID_POINTS`` grid, doubling it
    up to MAX_REFINEMENTS times.

    When the finest grid still breaks the branch tracking, the
    :class:`ContinuityError` names that grid and says the crossing is too
    sharp for the drive: the caller cannot refine further.
    """
    n_points = DEFAULT_GRID_POINTS
    for doublings in range(MAX_REFINEMENTS + 1):
        try:
            frame = adiabatic_spectrum(h_of_t, np.linspace(t_start, t_end, n_points))
        except ContinuityError as exc:
            if doublings == MAX_REFINEMENTS:
                where = str(exc).removesuffix("; refine the grid")
                raise ContinuityError(
                    f"{where} on the finest grid tried, {n_points} points; the "
                    "avoided crossing is too sharp for this drive") from exc
            n_points = 2 * (n_points - 1) + 1
        else:
            frame.refinements = doublings
            return frame


def nonadiabatic_coupling(frame: AdiabaticFrame, i: int, j: int) -> np.ndarray:
    """``alpha_ji(t) = <j(t)| d/dt |i(t)>`` by finite differences on the frame.

    Central differences at interior points, one-sided at the ends.  Each
    neighbour of ``v_i(t_k)`` first takes the sign
    ``s_k = sign <v_i(t_k)|v_i(t_k+1)>`` that aligns it with ``v_i(t_k)``.
    Flipping a vector's sign is exact, so any signs the frame's vectors carry
    change ``alpha_ji`` by an exact sign at most and leave ``|alpha_ji|``
    bit-identical.
    """
    if i == j:
        raise ValueError("nonadiabatic coupling needs two distinct branches")
    vi = frame.vectors[:, :, i]
    vj = frame.vectors[:, :, j]
    t = frame.times
    s = np.sign(np.sum(vi[:-1] * vi[1:], axis=1))[:, None]
    dvi = np.empty_like(vi)
    dvi[1:-1] = (s[1:] * vi[2:] - s[:-1] * vi[:-2]) / (t[2:] - t[:-2])[:, None]
    dvi[0] = (s[0] * vi[1] - vi[0]) / (t[1] - t[0])
    dvi[-1] = (vi[-1] - s[-1] * vi[-2]) / (t[-1] - t[-2])
    return np.sum(vj * dvi, axis=1)


def diabatic_ratio(frame: AdiabaticFrame, i: int, j: int) -> np.ndarray:
    """``|alpha_ji(t) / omega_ji(t)|^2`` on the frame's grid, ``omega_ji = E_j - E_i``."""
    omega = frame.energies[:, j] - frame.energies[:, i]
    return np.abs(nonadiabatic_coupling(frame, i, j) / omega) ** 2


class DiabaticBound(NamedTuple):
    value: float
    time: float


def diabatic_bound(frame: AdiabaticFrame, i: int, j: int) -> DiabaticBound:
    """Peak adiabaticity ratio ``max_t |alpha_ji / omega_ji|^2`` and its argmax.

    A first-order estimate that leaves out the pulse-window edges.  Rejects
    frames where the branch gap collapses below 1e-6 of its maximum, or
    changes sign (the branches crossed between grid points, so the tracking
    followed the diabatic states), where the ratio stops being meaningful.
    """
    omega = frame.energies[:, j] - frame.energies[:, i]
    omega_scale = float(np.max(np.abs(omega)))
    if omega_scale == 0.0 or np.min(np.abs(omega)) < OMEGA_FLOOR_REL * omega_scale:
        raise DegeneracyError(
            "branch gap nearly closes on the grid; diabatic bound unreliable"
        )
    if np.any(np.signbit(omega) != np.signbit(omega[0])):
        raise DegeneracyError(
            "branch gap changes sign on the grid; diabatic bound unreliable"
        )
    ratio = diabatic_ratio(frame, i, j)
    k = int(np.argmax(ratio))
    return DiabaticBound(value=float(ratio[k]), time=float(frame.times[k]))


@dataclass
class ReducedModel:
    """The drive terms of a red-sideband drive on its symmetric low-excitation states.

    ``states[k] = (m, n)`` is the uniform superposition of all spin words
    with m ions up (the Dicke state) times ``|n>``, for n <= 1, m + n <= 2
    and m <= N; for two ions these are ``|dd,0>, |dd,1>, |D,0>, |D,1>,
    |uu,0>``.  ``terms`` holds the drive terms projected onto these states, so
    ``h_at(t) = P0 - delta_c(t) P1 + Omega(t) P2 + Omega(t)^2 P3`` like the
    full Hamiltonian.  The projection is exact for symmetric illumination;
    with unequal weights or offsets it keeps their means.
    """

    drive: DriveConfig
    states: tuple
    terms: np.ndarray

    def h_at(self, t) -> np.ndarray:
        """``(d, d)`` at a scalar time, ``(K, d, d)`` at a 1-d array of K times."""
        # contiguous columns: strided (K, 1, 1) factors slow the products down
        _, c1, c2, c3 = np.ascontiguousarray(coefficients(self.drive, t).T)[..., None, None]
        p0, p1, p2, p3 = self.terms
        return ((p0 + c1 * p1) + c2 * p2) + c3 * p3

    def component(self, states) -> ReducedModel:
        """The model on ``states`` and every state coupled to them, directly or not.

        Two states couple where an off-diagonal entry of any term is nonzero;
        no cut is applied, so only exactly decoupled states are left out and
        ``h_at`` on the kept states is the exact sub-block of this model's.
        The kept states stay in this model's order.
        """
        coupled = np.any(self.terms != 0.0, axis=0)
        reach = np.isin(np.arange(len(self.states)), [self.states.index(s) for s in states])
        for _ in range(len(self.states) - 1):   # a path visits at most d states
            reach |= coupled[reach].any(axis=0)
        keep = np.flatnonzero(reach)
        return ReducedModel(drive=self.drive, states=tuple(self.states[k] for k in keep),
                            terms=self.terms[:, keep[:, None], keep])


def reduced_model(drive: DriveConfig) -> ReducedModel:
    """The drive's Hamiltonian on the symmetric low-excitation states.

    Requires a red-sideband drive and ``n_max >= 1``.
    """
    if drive.sideband is not Sideband.RED:
        raise ValueError("the reduced model describes a red-sideband drive")
    space = drive.space
    if space.n_max < 1:
        raise ValueError("the reduced model needs n_max >= 1")
    n_qubits = space.n_qubits
    ms = range(min(n_qubits, 2) + 1)
    states = tuple((m, n) for m in ms for n in range(2) if m + n <= 2)
    dicke = dicke_columns(n_qubits)[:, :len(ms)]   # column m: |D_N^(m)>
    terms = drive_terms(drive).rotated(dicke).assemble([m for m, _ in states],
                                                       [n for _, n in states])
    return ReducedModel(drive=drive, states=states, terms=terms)
