"""Unitarity-preserving integration of the time-dependent Schrodinger equation.

Each step is a fourth-order composition of Strang splits along the motional
(Fock) number.  The drive
Hamiltonian comes from :func:`dickesim.drive.drive_terms` as spin (x) Fock
factors, ``H(t) = omega_v 1(x)n + sum_k c_k(t) H_k(x)1 + Omega(t) R`` with
``R = J(x)L + J^T(x)L^T``, and is cut into

* ``H_F(t) = omega_v 1(x)n + H_int(t)(x)1``, every Fock-number-preserving
  entry (the diagonal terms and the carrier couplings).  Its exponential
  needs only an eigendecomposition of the small internal matrix ``H_int(t)``
  on the block's spin states, read from the record's ``internal`` stack;
* ``Omega(t) R``, the sideband couplings that change the Fock number.  R
  does not depend on time; it is assembled on the block's states and
  diagonalised once per block.

The step defaults to ``0.60 / max_frequency`` (:func:`default_dt`) and a
guard rejects any step above ``0.75 / max_frequency``; a pulse of more than
``STEP_CAP`` steps is refused before its first step.  ``max_frequency``
holds what the split integrates approximately (:func:`max_frequency`): the
peak coupling, the chirp endpoints, the ion offsets and the envelope floor
``8/sigma``, which keeps about 63 steps on any Gaussian pulse.  The trap
frequency is not such a rate.  The split's error comes
from the commutators of its pieces (McLachlan & Quispel, Acta Numerica 11,
341 (2002)), and ``omega_v`` multiplies an excitation number (``n + up``
red, ``n - up`` blue, ``n`` carrier) that commutes with R.  Without carrier
couplings that number is conserved on every block, so ``omega_v`` times it
is an exact phase that commutes with every factor.  With both couplings the
carrier does not conserve it; ``omega_v`` then reaches the error through the
carrier's rotation at ``omega_v`` between the split's samples, which grows
the error steadily in ``omega_v dt`` (fastest on short pulses, where it
combines with the envelope rate) and sharply near the aliasing resonance
``2 pi``.  For those drives ``omega_v / 4`` enters ``max_frequency`` as a
margin, so the default step keeps ``omega_v dt <= 2.4``.

A Strang sub-step of length h at midpoint t is ``S = A B A`` with
``A = exp(-i H_F(t) h / 2)`` and ``B = exp(-i Omega(t) R h)``.  It is
time-symmetric and second order, so Suzuki's symmetric five-stage
composition ``S(p dt) S(p dt) S((1 - 4p) dt) S(p dt) S(p dt)`` with
``p = 1 / (4 - 4^(1/3))`` is fourth order (Suzuki, Phys. Lett. A 146, 319
(1990); McLachlan, SIAM J. Sci. Comput. 16, 151 (1995)).  Its one backward
sub-step, ``1 - 4p = -0.66``, is shorter than the triple jump's
``-1.70``, so its error constant is much smaller.  Each step of length dt
takes those five sub-steps, at midpoints ``0.207 dt``, ``0.622 dt``,
``dt / 2``, ``0.378 dt`` and ``0.793 dt`` into the step (the middle one runs
backward).  Every factor is an exact exponential, so each
step is unitary to machine precision.  ``A`` is complex symmetric and
``B = V diag(b) V^T`` with V real (the eigenvectors of R), so every sub-step
factors as ``S = Q Q^T`` with ``Q = A V diag(b)^(1/2)``; the factors of a
chunk are built in batch.  A block above ``SCAN_BLOCK`` states
applies each sub-step as ``Q (Q^T psi)``, two matrix-vector products, and never
forms S.  For smaller blocks the states
after every sub-step come from a two-level prefix-product scan over the formed
sub-step unitaries (groups of about sqrt(K) sub-steps: batched products within
each group, one matrix-vector product per group, one in-place batched product
for every state), so the Python-level loop runs about sqrt(K) times per chunk
of K sub-steps instead of K times.  Either way every state is produced, and
the norm drift and truncation leak are read off the state after each whole
step (the states between sub-steps are not the state at any time).
Every chunk builds its stacks in one buffer allocated per call, so the
chunk loop allocates no stack.

Rounding still moves the norm by about 3e-16 per sub-step, so after each chunk
the carried block state is rescaled to unit norm (projection onto the
invariant).  The norm drift reported and checked is the largest
deviation within a chunk, before rescaling: it still measures unitarity.

Two structural reductions keep the cost down without changing the result:

* one block evolves: the basis states that hold more of the initial
  state's weight than ``BLOCK_WEIGHT_FLOOR`` and every state H couples to
  them, directly or through others (amplitudes outside it stay exactly
  zero for all time); the drive record finds it along the nonzero entries
  of H's small factors (:meth:`dickesim.drive.DriveTerms.coupled`);
* identical ions (equal weights and equal offsets, N > 1) leave the
  permutation-symmetric states invariant, so a state with no more weight
  outside the span of the N + 1 Dicke states than ``BLOCK_WEIGHT_FLOOR``
  evolves on them: the drive record is projected onto the Dicke columns D
  (:func:`dickesim.core.dicke_columns`, the bright states of the
  bright/dark reduction of degenerate coupled systems), a 2**N x (N + 1)
  projection, and the state moves onto them as ``D^T psi`` and back as
  ``D psi`` on its (2**N, n_fock) reshape.  Any other state evolves in the
  product basis.

Both are exact basis-level statements about H, not approximations: only
exact zeros of the factors separate states.  No operator on the full space
is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, dicke_columns
from .drive import DriveConfig, DriveTerms, Sideband, coefficients, drive_terms
from .errors import (NumericsError, ResourceGuardError, StepSizeError,
                     TruncationLeakError)

#: sub-steps per chunk; blocks above 4 states get proportionally fewer, so one
#: stack of a chunk never exceeds CHUNK_ENTRIES complex entries (1.3 MB, what
#: 256 sub-steps of an 18-state block take) and the three stacks of the
#: per-call buffer stay below numpy's 4 MiB huge-page threshold; a chunk holds
#: the whole steps whose sub-steps fit
CHUNK_STEPS = 4096
CHUNK_ENTRIES = 256 * 18**2
#: largest block taken by the prefix-product scan (and largest inner size of
#: its broadcast multiply-adds); larger blocks never form the step unitaries
SCAN_BLOCK = 4
BLOCK_WEIGHT_FLOOR = 1e-20
LEAK_LIMIT = 1e-4
#: largest norm deviation within one chunk before evolve raises NumericsError
NORM_DRIFT_LIMIT = 1e-9
#: default step and guard, times 1 / max_frequency, measured on the composed
#: step with the envelope floor 8 / sigma: against dt/8, none of 2000 random
#: 1-4 us pulses moves populations by more than 1e-5
DEFAULT_STEP = 0.60
STEP_LIMIT = 0.75
#: most composed steps one evolve takes before ResourceGuardError: about 13x
#: the longest run of the test suite (311395 steps); a run at the cap took
#: 12.5 s on a 2-state block and 130 s on an 18-state one (2-vCPU host)
STEP_CAP = 4_000_000
#: Suzuki's five-stage composition S(p dt) S(p dt) S((1 - 4p) dt) S(p dt) S(p dt):
#: sub-step lengths and midpoints as fractions of the step
_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
SUBSTEP_LENGTHS = np.array([_P, _P, 1.0 - 4.0 * _P, _P, _P])
SUBSTEP_MIDPOINTS = np.cumsum(SUBSTEP_LENGTHS) - SUBSTEP_LENGTHS / 2


@dataclass
class EvolutionResult:
    """Final state plus integration diagnostics.

    ``steps`` and ``dt`` are the count and the effective length of the
    composed steps, each five Strang sub-steps (five exponentials of the
    internal Hamiltonian and of the sideband coupling).  ``block_size`` is
    the number of states of the evolved block and ``symmetric_basis``
    whether it lives on the Dicke states.
    ``norm_drift`` is the largest deviation of the norm squared from 1
    within a chunk, before the per-chunk rescale.  ``peak_leak`` is the
    largest population at ``fock_n = n_max`` after any whole step and
    ``peak_leak_time`` when it happened.
    """

    final_state: StateVector
    norm_drift: float
    steps: int
    dt: float
    block_size: int
    symmetric_basis: bool
    peak_leak: float
    peak_leak_time: float


def default_dt(cfg: DriveConfig) -> float:
    """The integration step: 0.60 / :func:`max_frequency`, inside the 0.75 guard.

    The factor is measured on the composed step (:data:`DEFAULT_STEP`).  A
    drive with no frequency the split approximates (no coupling, chirp, offset
    or envelope) is integrated exactly by one step: ``math.inf``.
    """
    frequency = max_frequency(cfg)
    return DEFAULT_STEP / frequency if frequency > 0 else math.inf


def max_frequency(cfg: DriveConfig) -> float:
    """The fastest frequency the split integrates approximately (rad/s).

    The largest of :func:`_step_frequencies`; :func:`default_dt` and the step
    guard are fixed fractions of its inverse.
    """
    return max(_step_frequencies(cfg).values())


def _step_frequencies(cfg: DriveConfig) -> dict:
    """The frequencies that bound the step, by what sets them (rad/s).

    The coupling is the total peak Rabi frequency when the drive keeps its
    carrier couplings and ``eta sqrt(n_max)`` times it for a sideband-only
    drive.  The envelope enters as ``8/sigma``, a floor of about 63 steps
    per Gaussian pulse (``4.72 sigma`` long).  On pulses of a few dozen
    steps, where coupling, chirp and envelope rate nearly coincide, the
    largest single rate understates the step's error; with the floor,
    2000 random 1-4 us pulses stayed within 1.9e-6 of dt/8 in populations
    (85 were off by more than 1e-5 at ``1/sigma``, the worst by 9.6e-6 at
    ``5/sigma``).  The trap frequency is not a rate the split resolves (see
    the module docstring).  It enters as ``omega_v / 4``, a margin that keeps
    the composed step's error growth in ``omega_v dt`` inside the convergence
    bounds and far from the aliasing resonance ``omega_v dt = 2pi``, and only
    where carrier and sideband couplings coexist: the default step then
    covers at most 0.38 of a trap period (``omega_v dt <= 2.4``, ``<= 3.0``
    at the guard).  O(N) in the ion number.
    """
    pulse = cfg.pulse
    coupling = cfg.total_peak_rabi
    if not cfg.carrier_coupled:
        coupling *= cfg.eta * math.sqrt(cfg.space.n_max)
    frequencies = {
        "the peak coupling": coupling,
        "a chirp endpoint": max(abs(pulse.chirp_start), abs(pulse.chirp_end)),
        "an ion detuning offset": max(map(abs, cfg.ion_detuning_offsets)),
        "the envelope floor 8/sigma": 8.0 / pulse.sigma,
    }
    if cfg.carrier_coupled and cfg.sideband is not Sideband.CARRIER:
        frequencies["the trap-period margin omega_v / 4"] = cfg.omega_v / 4
    return frequencies


@dataclass
class _FockSplit:
    """One block's split factors: H_F by groups of Fock levels, R in its eigenbasis.

    ``idx`` orders the block so that each group of Fock levels carrying the
    same internal states is one contiguous run, internal state major and
    Fock level minor.  Each group is ``(H_int coefficient stack (4, s, s),
    first row, levels (L,))``.
    """

    idx: np.ndarray
    groups: list
    r_values: np.ndarray
    r_vectors: np.ndarray

    def step_factors(self, coefs: np.ndarray, omega_v: float, dts: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
        """The factors ``Q_k`` of ``S_k = A_k V diag(b_k) V^T A_k = Q_k Q_k^T``.

        Strang step k has the midpoint coefficients ``coefs[k]`` and the
        length ``dts[k]``.  ``A_k`` is complex symmetric, so
        ``Q_k = A_k V diag(b_k)^(1/2)``.  They are written to ``out``, a
        (K, m, m) stack with K >= len(coefs), and the filled part of it is
        returned.
        """
        n, m = len(coefs), len(self.r_values)
        half_dt = -0.5j * dts[:, None]
        half_b = np.exp(half_dt * coefs[:, 2:3] * self.r_values)[:, None, None, :]
        q = out[:n]
        for stack, first, levels in self.groups:
            size, n_levels = stack.shape[1], len(levels)
            rows = slice(first, first + size * n_levels)
            v = self.r_vectors[rows].reshape(size, n_levels * m)
            w, e = np.linalg.eigh(np.tensordot(coefs, stack, axes=(1, 0)))
            av = (e * np.exp(half_dt * w)[:, None, :]) @ e.transpose(0, 2, 1) @ v
            shift = np.exp(half_dt * omega_v * levels)[:, None, :, None]
            np.multiply(av.reshape(n, size, n_levels, m), shift * half_b,
                        out=q[:, rows].reshape(n, size, n_levels, m))
        return q


def _fock_split(terms: DriveTerms, idx: np.ndarray, n_fock: int) -> _FockSplit:
    """Split one block along the Fock number: H_int by groups, R in its eigenbasis."""
    fock, states = idx % n_fock, idx // n_fock
    by_states: dict = {}
    for n in np.unique(fock):
        by_states.setdefault(tuple(states[fock == n]), []).append(n)
    groups, first, order = [], 0, []
    for members, levels in by_states.items():
        members, levels = np.array(members), np.array(levels)
        groups.append((terms.internal[:, members[:, None], members], first,
                       levels.astype(float)))
        first += len(members) * len(levels)
        order.append((members[:, None] * n_fock + levels).ravel())
    idx = np.concatenate(order)
    r_values, r_vectors = np.linalg.eigh(terms.coupling(idx // n_fock, idx % n_fock))
    return _FockSplit(idx, groups, r_values, r_vectors)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
            tmp: np.ndarray | None = None) -> np.ndarray:
    """Stacked matrix product ``a @ b`` for at most ``SCAN_BLOCK`` inner terms.

    ``@`` makes one BLAS call per matrix of the stack, which dominates for
    small matrices; broadcast multiply-adds over the inner index are several
    times faster, and they write the product to ``out`` and each added term
    to ``tmp`` when those are given.
    """
    out = np.multiply(a[..., :, :1], b[..., :1, :], out=out)
    for j in range(1, a.shape[-1]):
        out += np.multiply(a[..., :, j:j + 1], b[..., j:j + 1, :], out=tmp)
    return out


def _run_chunk(q: np.ndarray, psi: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The state after every step ``U_k = Q_k Q_k^T`` of a chunk of K steps.

    Blocks above ``SCAN_BLOCK`` states take each step as ``Q_k (Q_k^T psi)``:
    two matrix-vector products, and U is never formed.  Smaller blocks form
    every U in ``work[0]`` (``work`` is a (2, K, m, m) buffer, ``work[1]`` the
    scratch product) and run a two-level scan.  The K steps form groups of
    L = floor(sqrt(K)) consecutive steps.  Phase 1 overwrites each step
    unitary in place with the product of its group up to that step (L - 1
    batched products), phase 2 carries the state across group ends (one
    matrix-vector product per full group) and phase 3 applies every prefix
    product to the state entering its group (one batched product,
    accumulated in place: the states are returned as a view of column 0 of
    ``work[0]``).
    """
    n_steps, m = q.shape[:2]
    if m > SCAN_BLOCK:
        states = np.empty((n_steps, m), dtype=complex)
        half = np.empty(m, dtype=complex)
        for qk, out in zip(q, states):
            np.dot(qk.T, psi, out=half)
            psi = np.dot(qk, half, out=out)
        return states
    unitaries, scratch = work[:, :n_steps]
    _matmul(q, q.transpose(0, 2, 1), out=unitaries, tmp=scratch)
    size = math.isqrt(n_steps)
    for j in range(1, size):
        later = unitaries[j::size]
        later[...] = _matmul(later, unitaries[j - 1::size][:len(later)])
    ends = unitaries[size - 1::size]
    carried = np.empty((len(ends) + 1, m), dtype=complex)
    carried[0] = psi
    for u, before, out in zip(ends, carried, carried[1:]):
        np.dot(u, before, out=out)
    # phase 3 in place: scale column j of every prefix product by entry j of
    # the state entering its group, then add the columns up into column 0
    full = n_steps - n_steps % size
    groups = unitaries[:full].reshape(-1, size, m, m)
    for prods, entering in ((groups, carried[:-1, None, None]),
                            (unitaries[full:], carried[-1])):
        prods *= entering
        for j in range(1, m):
            prods[..., 0] += prods[..., j]
    return unitaries[:, :, 0]


def evolve(cfg: DriveConfig, psi0: StateVector, dt: float | None = None,
           duration: float | None = None) -> EvolutionResult:
    """Propagate ``psi0`` through one pulse of ``cfg``.

    Each step of length ``dt`` is Suzuki's composition of five Strang
    sub-steps.  ``dt`` defaults to :func:`default_dt`; a guard rejects steps
    coarser than ``0.75 / max_frequency``, and :class:`ResourceGuardError` a
    run of more than ``STEP_CAP`` steps, before any block is built.
    ``duration`` defaults to the pulse duration and must be given for flat
    (infinite-sigma) pulses; the state at any time inside the pulse is
    ``evolve(..., duration=t)``.  The truncation leak (population at
    ``fock_n = n_max``) and the norm drift are checked after every whole
    step; the drift is measured from unit norm, to which the state is
    rescaled after each chunk.  One block evolves: the basis states holding
    more than ``BLOCK_WEIGHT_FLOOR`` of the weight and every state the drive
    record couples to them.
    """
    if psi0.space != cfg.space:
        raise ValueError("initial state lives in a different space than the drive")
    if duration is None:
        duration = cfg.pulse.duration
    if not math.isfinite(duration) or duration <= 0:
        raise ValueError(f"need a finite positive duration, got {duration}")
    source = "given" if dt is not None else f"{DEFAULT_STEP} / max_frequency"
    if dt is None:
        dt = default_dt(cfg)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, math.ceil(duration / dt))
    dt_eff = duration / n_steps
    frequencies = _step_frequencies(cfg)
    bound = max(frequencies, key=frequencies.get)
    if n_steps > STEP_CAP:
        raise ResourceGuardError(
            f"{n_steps} steps of dt={dt_eff:.3e} s ({source}, where max_frequency = "
            f"{frequencies[bound]:.4g} rad/s is {bound}) over the {cfg.sideband.value} "
            f"drive's {duration:.3e} s exceed the cap of {STEP_CAP}"
        )
    if dt_eff * frequencies[bound] > STEP_LIMIT:
        raise StepSizeError(
            f"dt={dt_eff:.3e} s too coarse: dt * max_frequency = "
            f"{dt_eff * frequencies[bound]:.3f} > {STEP_LIMIT:.2f}, where max_frequency = "
            f"{frequencies[bound]:.4g} rad/s is {bound}"
        )

    # identical ions evolve a symmetric state on the Dicke states; the weight
    # outside their span is summed from the residual, because 1 - |D^T psi|^2
    # rounds at ~1e-16, far above the floor
    n_fock = cfg.space.n_fock
    terms, dicke, psi_rep = drive_terms(cfg), None, psi0.amplitudes
    if (cfg.space.n_qubits > 1 and len(set(cfg.ion_weights)) == 1
            and len(set(cfg.ion_detuning_offsets)) == 1):
        columns = dicke_columns(cfg.space.n_qubits)
        amplitudes = psi_rep.reshape(-1, n_fock)
        projected = columns.T @ amplitudes
        dark = amplitudes - columns @ projected
        if float(np.sum(dark.real**2 + dark.imag**2)) <= BLOCK_WEIGHT_FLOOR:
            terms, dicke, psi_rep = terms.rotated(columns), columns, projected.ravel()

    seeds = np.flatnonzero(psi_rep.real**2 + psi_rep.imag**2 > BLOCK_WEIGHT_FLOOR)
    split = _fock_split(terms, terms.coupled(seeds), n_fock)
    psi = psi_rep[split.idx].astype(complex)
    leak_mask = (split.idx % n_fock) == cfg.space.n_max

    m = len(split.idx)
    n_sub = len(SUBSTEP_LENGTHS)
    chunk = max(1, min(CHUNK_STEPS, CHUNK_ENTRIES // m**2) // n_sub)
    sub_dts = SUBSTEP_LENGTHS * dt_eff
    # every chunk builds its stacks (Q, and U with a scratch product for a
    # scanned block) in this one buffer, so no chunk allocates a stack
    buffer = np.empty((3, n_sub * chunk, m, m), dtype=complex)
    norm_drift = 0.0
    peak_leak, peak_leak_time = 0.0, 0.0
    for start in range(0, n_steps, chunk):
        steps = np.arange(start + 1, min(start + chunk, n_steps) + 1)
        midpoints = ((steps - 1)[:, None] + SUBSTEP_MIDPOINTS).ravel() * dt_eff
        coefs = coefficients(cfg, midpoints)
        dts = np.tile(sub_dts, len(steps))
        q = split.step_factors(coefs, cfg.omega_v, dts, buffer[0])
        # the states after whole steps; those between sub-steps are not the
        # state at any time
        states = _run_chunk(q, psi, buffer[1:])[n_sub - 1::n_sub]
        pops = states.real**2 + states.imag**2
        norms = pops.sum(axis=1)
        leaks = pops[:, leak_mask].sum(axis=1)

        drift = np.abs(1.0 - norms)
        worst = int(np.argmax(drift))
        if drift[worst] > NORM_DRIFT_LIMIT:
            raise NumericsError(
                f"norm drifted by {drift[worst]:.3e} > {NORM_DRIFT_LIMIT:.0e} at "
                f"t = {steps[worst] * dt_eff:.3e} s; the steps are not unitary")
        norm_drift = max(norm_drift, float(drift[worst]))
        psi = states[-1] * (1.0 / math.sqrt(norms[-1]))
        peak = int(np.argmax(leaks))
        if leaks[peak] > LEAK_LIMIT:
            raise TruncationLeakError(
                f"population {leaks[peak]:.3e} reached fock_n = n_max = {cfg.space.n_max} "
                f"at t = {steps[peak] * dt_eff:.3e} s; increase n_max"
            )
        if leaks[peak] > peak_leak:
            peak_leak, peak_leak_time = float(leaks[peak]), float(steps[peak] * dt_eff)

    psi_final = np.zeros(len(psi_rep), dtype=complex)
    psi_final[split.idx] = psi
    if dicke is not None:
        psi_final = (dicke @ psi_final.reshape(-1, n_fock)).ravel()
    final = StateVector(cfg.space, psi_final)
    return EvolutionResult(
        final_state=final, norm_drift=norm_drift, steps=n_steps, dt=dt_eff,
        block_size=m, symmetric_basis=dicke is not None, peak_leak=peak_leak,
        peak_leak_time=peak_leak_time)
