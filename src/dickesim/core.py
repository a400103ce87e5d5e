"""Hilbert space, spin layout, state vectors and Dicke states.

The simulation space is N optical qubits times one truncated harmonic
oscillator (the axial center-of-mass mode).  Qubit levels are written
``'d'`` (down, the fluorescing ground state) and ``'u'`` (up, the shelved
state); a spin word is a string such as ``"du"`` with ion 1 first.

Basis ordering convention (frozen, all modules depend on it):

    index(spins, n) = spin_index * (n_max + 1) + n

where ``spin_index`` reads the spin word as a big-endian binary number with
``u = 1`` (``"dd" -> 0``, ``"du" -> 1``, ``"ud" -> 2``, ``"uu" -> 3``), i.e.
the ordering is spin-major with the Fock index ascending fastest.

This module is the one place that spin layout is decoded: :func:`spin_bits`
gives each spin index's bits (whose row sums are the up counts) and
:func:`dicke_vector` the Dicke state ``|D_N^(m)>`` on the spin words, which
:func:`make_dicke`, :func:`dicke_columns` (the Dicke states the reduced model
and the propagator project onto) and the fidelity all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .errors import ResourceGuardError

SPIN_DOWN = "d"
SPIN_UP = "u"

DEFAULT_DIM_CAP = 4096

NORM_TOL = 1e-9


def normalize_spins(spins) -> str:
    """Check a spin word (string or sequence of 'd'/'u') and return it as a string."""
    for s in spins:
        if s not in (SPIN_DOWN, SPIN_UP):
            raise ValueError(f"invalid spin label {s!r}; expected 'd' or 'u'")
    return "".join(spins)


@dataclass(frozen=True)
class HilbertSpace:
    """N qubits times a Fock space truncated at ``n_max`` quanta.

    Only dimensions and the basis ordering live here; the drive builds its
    operators as spin (x) Fock factors (:class:`dickesim.drive.DriveTerms`).
    Instances are immutable and safe to share.
    """

    n_qubits: int
    n_max: int

    @property
    def n_fock(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2**self.n_qubits * self.n_fock

    def index(self, spins, fock_n: int) -> int:
        """Basis index of ``|spins, fock_n>`` under the frozen ordering."""
        spins = normalize_spins(spins)
        if len(spins) != self.n_qubits:
            raise ValueError(
                f"spin word {spins!r} has {len(spins)} labels, space has {self.n_qubits} qubits"
            )
        if not 0 <= fock_n <= self.n_max:
            raise ValueError(f"fock_n={fock_n} outside truncation [0, {self.n_max}]")
        spin_index = int(spins.replace(SPIN_DOWN, "0").replace(SPIN_UP, "1"), 2)
        return spin_index * self.n_fock + fock_n

    def basis_state(self, index: int) -> tuple[str, int]:
        """Inverse of :meth:`index`: the spin word and the Fock number."""
        if not 0 <= index < self.dim:
            raise IndexError(f"basis index {index} outside [0, {self.dim})")
        spin_index, fock_n = divmod(index, self.n_fock)
        word = format(spin_index, f"0{self.n_qubits}b")
        spins = word.replace("0", SPIN_DOWN).replace("1", SPIN_UP)
        return spins, fock_n


def spin_bits(n_qubits: int) -> np.ndarray:
    """``bits[s, j]`` = 1 when ion j + 1 is up in spin index s, shape ``(2**N, N)``.

    Ion 1 is the leading bit and up is 1, so row s spells the spin word of
    index s; the row sums are the up counts.
    """
    return (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1


def dicke_vector(n_qubits: int, m: int) -> np.ndarray:
    """Real amplitudes of ``|D_N^(m)>`` on the 2**N spin words.

    ``1/sqrt(C(N, m))`` on every word with m ions up, 0 elsewhere.
    """
    if not 0 <= m <= n_qubits:
        raise ValueError(f"excitation number m={m} outside [0, {n_qubits}]")
    ups = spin_bits(n_qubits).sum(axis=1) == m
    return np.where(ups, 1.0 / sqrt(comb(n_qubits, m)), 0.0)


def dicke_columns(n_qubits: int) -> np.ndarray:
    """The N + 1 Dicke vectors as orthonormal columns, shape ``(2**N, N + 1)``.

    Column m is :func:`dicke_vector` ``(N, m)``; together they span the
    permutation-symmetric spin states.
    """
    return np.stack([dicke_vector(n_qubits, m) for m in range(n_qubits + 1)], axis=1)


def build_space(n_qubits: int, n_max: int) -> HilbertSpace:
    """Construct the qubits-times-oscillator space, at most ``DEFAULT_DIM_CAP`` states."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    dim = 2**n_qubits * (n_max + 1)
    if dim > DEFAULT_DIM_CAP:
        raise ResourceGuardError(
            f"requested space has dim={dim}, exceeding the cap of {DEFAULT_DIM_CAP}"
        )
    return HilbertSpace(n_qubits, n_max)


@dataclass
class StateVector:
    """Complex amplitudes over a :class:`HilbertSpace`.

    States are unit-normalized; construction rejects any other norm.
    """

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, expected ({self.space.dim},)"
            )
        if abs(self.norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"state norm^2 = {self.norm_sq:.12g} deviates from 1 by more than {NORM_TOL}"
            )

    @property
    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))


def embed(space: HilbertSpace, spins, fock_n: int) -> StateVector:
    """Unit basis vector ``|spins, fock_n>``."""
    amplitudes = np.zeros(space.dim, dtype=complex)
    amplitudes[space.index(spins, fock_n)] = 1.0
    return StateVector(space, amplitudes)


def make_dicke(n_qubits: int, m: int, space: HilbertSpace | None = None) -> StateVector:
    """:func:`dicke_vector` times the motional ``|0>``.

    With ``space=None`` the state lives in a motionless space (``n_max = 0``);
    pass a space to embed it there instead.
    """
    if space is None:
        space = HilbertSpace(n_qubits, 0)
    elif space.n_qubits != n_qubits:
        raise ValueError(
            f"space has {space.n_qubits} qubits, Dicke state needs {n_qubits}"
        )
    amplitudes = np.zeros((2**n_qubits, space.n_fock), dtype=complex)
    amplitudes[:, 0] = dicke_vector(n_qubits, m)
    return StateVector(space, amplitudes.ravel())
