"""Unitarity-preserving integration of the time-dependent Schrodinger equation.

Each step is a Strang split along the motional (Fock) number.  The drive
Hamiltonian ``H(t) = S0 - delta_c(t) S1 + Omega(t) S2 + Omega(t)^2 S3`` is cut
into

* ``H_F(t)``, every Fock-number-preserving entry (the diagonal terms and the
  carrier couplings of S2).  It equals ``omega_v n (x) 1 + 1 (x) H_int(t)``,
  so its exponential needs only an eigendecomposition of the small internal
  matrix ``H_int(t)`` (2**N states, or N + 1 in the symmetric basis);
* ``Omega(t) R``, the sideband couplings of S2 that change the Fock number.
  R does not depend on time and is diagonalised once per block.

A step of length dt at midpoint t is ``U = A B A`` with
``A = exp(-i H_F(t) dt / 2)`` and ``B = exp(-i Omega(t) R dt)``.  Every
factor is an exact exponential, so each step is unitary to machine
precision and the global error is second order in dt.  ``A`` is complex
symmetric and ``B = V diag(b) V^T`` with V real (the eigenvectors of R), so
every step factors as ``U = Q Q^T`` with ``Q = A V diag(b)^(1/2)``; the
factors of a chunk are built in batch.  Blocks above ``SCAN_BLOCK`` states
apply each step as ``Q (Q^T psi)``, two matrix-vector products, and never
form U.  For smaller blocks the states
after every step come from a two-level prefix-product scan over the formed
step unitaries (groups of about sqrt(K) steps: batched products within each
group, one matrix-vector product per group, one in-place batched product for
every state), so the Python-level loop runs about sqrt(K) times per chunk of
K steps instead of K times.  Either way every state is produced, and the
norm drift and truncation leak are read off each of them.  Every block
builds the stacks of every chunk in one buffer allocated per call, so the
chunk loop allocates no stack.

Rounding still moves the norm by about 3e-16 per step, so after each chunk
the carried block states are rescaled jointly to unit norm (projection onto
the invariant).  The norm drift reported and checked is the largest
deviation within a chunk, before rescaling: it still measures unitarity.

Two structural reductions keep the cost down without changing the result:

* the coupling pattern of H is decomposed into connected components and only
  the components overlapping the initial state are evolved (amplitudes
  outside them are exactly zero for all time);
* when all ions are driven identically, H is first conjugated by the
  permutation-symmetric basis change (the same idea as the bright/dark
  reduction of degenerate coupled systems), which splits the symmetric
  sector from the dark ones and shrinks the components further.

Both are exact basis-level statements about H, not approximations; entries
of a drive term below 1e-12 of that term's largest entry are treated as
structural zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, symmetric_transform
from .drive import DriveConfig, drive_terms, envelope
from .errors import NumericsError, StepSizeError, TruncationLeakError

#: steps per chunk; blocks above 4 states get proportionally fewer, so one
#: stack of a chunk never exceeds CHUNK_ENTRIES complex entries (1.3 MB, what
#: 256 steps of an 18-state block take) and the three stacks of the per-call
#: buffer stay below numpy's 4 MiB huge-page threshold
CHUNK_STEPS = 4096
CHUNK_ENTRIES = 256 * 18**2
#: largest block taken by the prefix-product scan (and largest inner size of
#: its broadcast multiply-adds); larger blocks never form the step unitaries
SCAN_BLOCK = 4
STRUCTURAL_ZERO = 1e-12
BLOCK_WEIGHT_FLOOR = 1e-20
LEAK_LIMIT = 1e-4
#: largest norm deviation within one chunk before evolve raises NumericsError
NORM_DRIFT_LIMIT = 1e-9


@dataclass
class EvolutionResult:
    """Final state plus integration diagnostics.

    ``steps`` and ``dt`` are the step count and the effective step,
    ``block_sizes`` the sizes of the evolved coupling blocks (largest first)
    and ``symmetric_basis`` whether they live in the permutation-symmetric
    basis.  ``norm_drift`` is the largest deviation of the norm squared from
    1 within a chunk, before the per-chunk rescale.  ``peak_leak`` is the
    largest population at ``fock_n = n_max`` after any step and
    ``peak_leak_time`` when it happened.  For a
    multi-stage sequence ``steps`` is the total, the peak leak is the
    sequence's and its time counts from the sequence start, while ``dt``,
    ``block_sizes`` and ``symmetric_basis`` are None: each stage has its own.
    """

    final_state: StateVector
    norm_drift: float
    steps: int
    dt: float | None
    block_sizes: tuple | None
    symmetric_basis: bool | None
    peak_leak: float
    peak_leak_time: float
    trajectory: list | None = None  # [(t, StateVector), ...] when sampled


def default_dt(cfg: DriveConfig) -> float:
    """Step resolving both the total drive strength and the trap frequency."""
    rates = [cfg.omega_v]
    if cfg.total_peak_rabi > 0:
        rates.append(cfg.total_peak_rabi)
    return 0.01 / max(rates)


def max_frequency(cfg: DriveConfig) -> float:
    return max(
        cfg.total_peak_rabi,
        cfg.omega_v,
        abs(cfg.pulse.chirp_start),
        abs(cfg.pulse.chirp_end),
    )


def _connected_components(pattern: np.ndarray):
    """Components of the symmetric adjacency implied by a boolean matrix."""
    dim = pattern.shape[0]
    seen = np.zeros(dim, dtype=bool)
    components = []
    for start in range(dim):
        if seen[start]:
            continue
        stack, members = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            members.append(i)
            for j in np.flatnonzero(pattern[i]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        components.append(np.array(sorted(members)))
    return components


def _transformed_terms(cfg: DriveConfig):
    """Drive terms in the cheapest exact representation: (terms, T_full or None)."""
    terms = drive_terms(cfg)
    candidates = [(terms, None)]
    weights = cfg.ion_weights
    offsets = cfg.ion_detuning_offsets
    if (cfg.space.n_qubits > 1 and len(set(weights)) == 1 and len(set(offsets)) == 1
            and cfg.space.n_qubits <= 8):
        t_int = symmetric_transform(cfg.space.n_qubits)
        t_full = np.kron(t_int, np.eye(cfg.space.n_fock))
        transformed = tuple(t_full.T @ s @ t_full for s in terms)
        candidates.append((transformed, t_full))
    return candidates


def _structural_cut(terms) -> np.ndarray:
    """Per-term threshold below which an entry is a structural zero.

    Each term is cut against its own largest entry, so a weak coupling in S2
    is not lost next to the large ``omega_v n`` diagonal of S0.
    """
    return STRUCTURAL_ZERO * np.array([np.abs(s).max() for s in terms])


def _pattern(terms) -> np.ndarray:
    pat = np.zeros(terms[0].shape, dtype=bool)
    for s, cut in zip(terms, _structural_cut(terms)):
        pat |= np.abs(s) > cut
    np.fill_diagonal(pat, False)
    return pat


def _active_blocks(terms, psi: np.ndarray):
    """Index arrays of the connected components carrying weight of psi."""
    blocks = _connected_components(_pattern(terms))
    active = []
    for idx in blocks:
        w = float(np.sum(np.abs(psi[idx]) ** 2))
        if w > BLOCK_WEIGHT_FLOOR:
            active.append(idx)
    return active


def _internal_terms(terms, n_fock: int) -> np.ndarray:
    """Coefficient matrices of H_int: every term restricted to Fock level 0."""
    ref = np.arange(0, terms[0].shape[0], n_fock)
    return np.stack([s[np.ix_(ref, ref)] for s in terms])


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

    def step_factors(self, coefs: np.ndarray, omega_v: float, dt: float,
                     out: np.ndarray) -> np.ndarray:
        """The factors ``Q_k`` of ``U_k = A_k V diag(b_k) V^T A_k = Q_k Q_k^T``.

        ``A_k`` is complex symmetric, so ``Q_k = A_k V diag(b_k)^(1/2)``, one
        per row of ``coefs``.  They are written to ``out``, a (K, m, m) stack
        with K >= len(coefs), and the filled part of it is returned.
        """
        n, m = len(coefs), len(self.r_values)
        half_b = np.exp(-0.5j * dt * coefs[:, 2:3] * self.r_values)[:, None, None, :]
        q = out[:n]
        for stack, first, levels in self.groups:
            size, n_levels = stack.shape[1], len(levels)
            rows = slice(first, first + size * n_levels)
            v = self.r_vectors[rows].reshape(size, n_levels * m)
            w, e = np.linalg.eigh(np.tensordot(coefs, stack, axes=(1, 0)))
            av = (e * np.exp(-0.5j * dt * w)[:, None, :]) @ e.transpose(0, 2, 1) @ v
            shift = np.exp(-0.5j * dt * omega_v * levels)[:, None]
            np.multiply(av.reshape(n, size, n_levels, m), shift * half_b,
                        out=q[:, rows].reshape(n, size, n_levels, m))
        return q


def _fock_split(terms, internal: np.ndarray, idx: np.ndarray, n_fock: int,
                omega_v: float) -> _FockSplit:
    """Split one block along the Fock number, checking that the split is exact.

    Raises :class:`NumericsError` when a term other than S2 changes the Fock
    number, or when a Fock level's block differs from ``H_int`` shifted by
    ``omega_v n``.
    """
    fock, states = idx % n_fock, idx // n_fock
    by_states: dict = {}
    for n in np.unique(fock):
        by_states.setdefault(tuple(states[fock == n]), []).append(n)
    layout = [(np.array(members), np.array(levels)) for members, levels in by_states.items()]
    idx = np.concatenate([(members[:, None] * n_fock + levels).ravel()
                          for members, levels in layout])

    sub = np.stack([s[np.ix_(idx, idx)] for s in terms])
    tol = _structural_cut(sub)
    same = (idx % n_fock)[:, None] == (idx % n_fock)[None, :]
    cross = np.abs(np.where(same, 0.0, sub)).max(axis=(1, 2))
    if np.any(np.delete(cross > tol, 2)):
        raise NumericsError("a term other than S2 changes the Fock number; "
                            "the Fock split does not apply")

    groups, first = [], 0
    for members, levels in layout:
        stack = internal[:, members[:, None], members]
        for k, n in enumerate(levels):
            rows = first + k + len(levels) * np.arange(len(members))
            level = sub[:, rows[:, None], rows]
            level[0] -= omega_v * n * np.eye(len(rows))
            if np.any(np.abs(level - stack).max(axis=(1, 2)) > tol):
                raise NumericsError(
                    f"Fock level {n} is not H_int + omega_v * {n}; "
                    "the Fock split does not apply")
        groups.append((stack, first, levels.astype(float)))
        first += len(members) * len(levels)
    r_values, r_vectors = np.linalg.eigh(np.where(same, 0.0, sub[2]))
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
           sample_every: int = 0, duration: float | None = None) -> EvolutionResult:
    """Propagate ``psi0`` through one pulse of ``cfg``.

    ``dt`` defaults to :func:`default_dt`; a guard rejects steps coarser than
    ``0.05 / max_frequency``.  ``duration`` defaults to the pulse duration and
    must be given for flat (infinite-sigma) pulses.  With ``sample_every = k``
    the trajectory records the state every k steps (plus the initial state).
    The truncation leak (population at ``fock_n = n_max``) and the norm
    drift are checked after every step; the drift is measured from unit
    norm, to which the state is rescaled after each chunk.
    """
    if psi0.space != cfg.space:
        raise ValueError("initial state lives in a different space than the drive")
    if duration is None:
        duration = cfg.pulse.duration
    if not math.isfinite(duration) or duration <= 0:
        raise ValueError(f"need a finite positive duration, got {duration}")
    if dt is None:
        dt = default_dt(cfg)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, math.ceil(duration / dt))
    dt_eff = duration / n_steps
    if dt_eff * max_frequency(cfg) > 0.05:
        raise StepSizeError(
            f"dt={dt_eff:.3e} s too coarse: dt * max_frequency = "
            f"{dt_eff * max_frequency(cfg):.3f} > 0.05"
        )

    # pick the representation with the smallest active sub-problem
    best = None
    for terms, t_full in _transformed_terms(cfg):
        psi_rep = psi0.amplitudes if t_full is None else t_full.T @ psi0.amplitudes
        blocks = _active_blocks(terms, psi_rep)
        cost = sum(len(b) ** 3 for b in blocks)
        if best is None or cost < best[0]:
            best = (cost, terms, t_full, psi_rep, blocks)
    _, terms, t_full, psi_rep, blocks = best

    n_fock = cfg.space.n_fock
    internal = _internal_terms(terms, n_fock)
    splits = [_fock_split(terms, internal, idx, n_fock, cfg.omega_v) for idx in blocks]
    psis = [psi_rep[split.idx].astype(complex) for split in splits]
    leak_masks = [(split.idx % n_fock) == cfg.space.n_max for split in splits]

    largest = max(len(split.idx) for split in splits)
    chunk = max(1, min(CHUNK_STEPS, CHUNK_ENTRIES // largest**2))
    # every block builds its chunk's stacks (Q, and U with a scratch product
    # for the scanned blocks) in this one buffer: stacks allocated per chunk
    # were handed back to the system by the C allocator and faulted in again
    work = np.empty(3 * chunk * largest**2, dtype=complex)
    norm_drift = 0.0
    peak_leak, peak_leak_time = 0.0, 0.0
    samples = []
    for start in range(0, n_steps, chunk):
        steps = np.arange(start + 1, min(start + chunk, n_steps) + 1)
        midpoints = (steps - 0.5) * dt_eff
        om = np.asarray(envelope(cfg.pulse, midpoints), dtype=float)
        dc = np.asarray(cfg.carrier_detuning(midpoints), dtype=float)
        coefs = np.column_stack([np.ones_like(om), -dc, om, om * om])
        picks = (np.flatnonzero(steps % sample_every == 0) if sample_every > 0
                 else np.array([], dtype=int))

        norms = np.zeros(len(steps))
        leaks = np.zeros(len(steps))
        picked = np.zeros((len(picks), cfg.space.dim), dtype=complex)
        for b, split in enumerate(splits):
            m = len(split.idx)
            buffer = work[:3 * chunk * m * m].reshape(3, chunk, m, m)
            q = split.step_factors(coefs, cfg.omega_v, dt_eff, buffer[0])
            states = _run_chunk(q, psis[b], buffer[1:])
            psis[b] = states[-1].copy()
            pops = states.real**2 + states.imag**2
            norms += pops.sum(axis=1)
            leaks += pops[:, leak_masks[b]].sum(axis=1)
            picked[:, split.idx] = states[picks]

        drift = np.abs(1.0 - norms)
        worst = int(np.argmax(drift))
        if drift[worst] > NORM_DRIFT_LIMIT:
            raise NumericsError(
                f"norm drifted by {drift[worst]:.3e} > {NORM_DRIFT_LIMIT:.0e} at "
                f"t = {steps[worst] * dt_eff:.3e} s; the steps are not unitary")
        norm_drift = max(norm_drift, float(drift[worst]))
        scale = 1.0 / math.sqrt(norms[-1])
        for psi in psis:
            psi *= scale
        peak = int(np.argmax(leaks))
        if leaks[peak] > LEAK_LIMIT:
            raise TruncationLeakError(
                f"population {leaks[peak]:.3e} reached fock_n = n_max = {cfg.space.n_max} "
                f"at t = {steps[peak] * dt_eff:.3e} s; increase n_max"
            )
        if leaks[peak] > peak_leak:
            peak_leak, peak_leak_time = float(leaks[peak]), float(steps[peak] * dt_eff)
        samples.extend(zip(steps[picks], picked))

    def back(vec):
        return vec if t_full is None else t_full @ vec

    trajectory = None
    if sample_every > 0:
        trajectory = [(0.0, psi0.copy())]
        trajectory += [(int(k) * dt_eff, StateVector(cfg.space, back(vec)))
                       for k, vec in samples]

    psi_final = np.zeros(cfg.space.dim, dtype=complex)
    for split, psi in zip(splits, psis):
        psi_final[split.idx] = psi
    final = StateVector(cfg.space, back(psi_final))
    return EvolutionResult(
        final_state=final, norm_drift=norm_drift, steps=n_steps, dt=dt_eff,
        block_sizes=tuple(sorted((len(split.idx) for split in splits), reverse=True)),
        symmetric_basis=t_full is not None, peak_leak=peak_leak,
        peak_leak_time=peak_leak_time, trajectory=trajectory)


def propagate_sequence(stages, psi0: StateVector, dt: float | None = None) -> EvolutionResult:
    """Apply ``stages = [(DriveConfig, duration), ...]`` coherently in order."""
    if not stages:
        raise ValueError("stage list is empty")
    psi = psi0
    drift = 0.0
    n_steps = 0
    peak_leak, peak_leak_time = 0.0, 0.0
    t_offset = 0.0
    for cfg, duration in stages:
        res = evolve(cfg, psi, dt=dt, duration=duration)
        psi = res.final_state
        drift = max(drift, res.norm_drift)
        n_steps += res.steps
        if res.peak_leak > peak_leak:
            peak_leak, peak_leak_time = res.peak_leak, t_offset + res.peak_leak_time
        t_offset += duration
    return EvolutionResult(final_state=psi, norm_drift=drift, steps=n_steps, dt=None,
                           block_sizes=None, symmetric_basis=None, peak_leak=peak_leak,
                           peak_leak_time=peak_leak_time)
