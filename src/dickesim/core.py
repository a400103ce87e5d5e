"""Hilbert space, state vectors and Dicke states.

The simulation space is N optical qubits times one truncated harmonic
oscillator (the axial center-of-mass mode).  Qubit levels are written
``'d'`` (down, the fluorescing ground state) and ``'u'`` (up, the shelved
state); a spin word is a string such as ``"du"`` with ion 1 first.

Basis ordering convention (frozen, all modules depend on it):

    index(spins, n) = spin_index * (n_max + 1) + n

where ``spin_index`` reads the spin word as a big-endian binary number with
``u = 1`` (``"dd" -> 0``, ``"du" -> 1``, ``"ud" -> 2``, ``"uu" -> 3``), i.e.
the ordering is spin-major with the Fock index ascending fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .errors import ResourceGuardError

SPIN_DOWN = "d"
SPIN_UP = "u"

#: Unicode arrows accepted as input aliases for spin labels.
_SPIN_ALIASES = {"↓": SPIN_DOWN, "↑": SPIN_UP, "d": SPIN_DOWN, "u": SPIN_UP}

DEFAULT_DIM_CAP = 4096

NORM_TOL = 1e-9


def normalize_spins(spins) -> str:
    """Coerce a spin word (string or sequence, arrows allowed) to 'd'/'u' form."""
    out = []
    for s in spins:
        if s not in _SPIN_ALIASES:
            raise ValueError(f"invalid spin label {s!r}; expected 'd'/'u' or arrows")
        out.append(_SPIN_ALIASES[s])
    return "".join(out)


@dataclass(frozen=True)
class BasisState:
    """One product basis state: a spin word and a motional quantum number."""

    spins: str
    fock_n: int

    def __post_init__(self):
        object.__setattr__(self, "spins", normalize_spins(self.spins))
        if self.fock_n < 0:
            raise ValueError(f"fock_n must be nonnegative, got {self.fock_n}")

    @property
    def n_up(self) -> int:
        return self.spins.count(SPIN_UP)

    def __str__(self) -> str:
        arrows = self.spins.replace("d", "↓").replace("u", "↑")
        return f"|{arrows},{self.fock_n}>"


@dataclass(frozen=True)
class HilbertSpace:
    """N qubits times a Fock space truncated at ``n_max`` quanta.

    Operators are built dense (the spaces used here stay below a few
    thousand dimensions) and cached on first use.  Instances are immutable
    and safe to share.
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

    def basis_state(self, index: int) -> BasisState:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.dim:
            raise IndexError(f"basis index {index} outside [0, {self.dim})")
        spin_index, fock_n = divmod(index, self.n_fock)
        word = format(spin_index, f"0{self.n_qubits}b")
        spins = word.replace("0", SPIN_DOWN).replace("1", SPIN_UP)
        return BasisState(spins, fock_n)

    # ------------------------------------------------------------------
    # dense operator building blocks (plain ndarrays, cached)
    # ------------------------------------------------------------------

    @cached_property
    def annihilation(self) -> np.ndarray:
        """COM-mode annihilation operator ``a`` on the full space."""
        a = np.diag(np.sqrt(np.arange(1, self.n_fock)), 1)
        return np.kron(np.eye(2**self.n_qubits), a)

    @cached_property
    def fock_number(self) -> np.ndarray:
        """Motional number operator ``a'a``."""
        n = np.diag(np.arange(self.n_fock, dtype=float))
        return np.kron(np.eye(2**self.n_qubits), n)

    def _qubit_op(self, ion: int, op2: np.ndarray) -> np.ndarray:
        """Lift a 2x2 single-qubit operator acting on ``ion`` (0-based)."""
        if not 0 <= ion < self.n_qubits:
            raise ValueError(f"ion index {ion} outside [0, {self.n_qubits})")
        mat = np.eye(1)
        for j in range(self.n_qubits):
            mat = np.kron(mat, op2 if j == ion else np.eye(2))
        return np.kron(mat, np.eye(self.n_fock))

    def sigma_plus(self, ion: int) -> np.ndarray:
        """``|u><d|`` on one ion."""
        return self._qubit_op(ion, np.array([[0.0, 0.0], [1.0, 0.0]]))

    def sigma_x(self, ion: int) -> np.ndarray:
        return self._qubit_op(ion, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def up_projector(self, ion: int) -> np.ndarray:
        return self._qubit_op(ion, np.array([[0.0, 0.0], [0.0, 1.0]]))

    @cached_property
    def atom_number(self) -> np.ndarray:
        """Number of ions in the up state, summed over ions."""
        return sum(self.up_projector(j) for j in range(self.n_qubits))


@lru_cache(maxsize=16)
def symmetric_transform(n_qubits: int) -> np.ndarray:
    """Orthogonal internal-basis change grouping states by up count.

    Columns come in blocks of fixed up count m = 0..N; the first column of
    each block is the uniform (permutation-symmetric, Dicke) combination and
    the rest span its orthogonal complement, so every column remains an
    eigenvector of the up-state number.  For two ions this is the bright/dark
    change of Morris and Shore.  The returned array is cached and read-only.
    """
    dim = 2**n_qubits
    n_up = np.array([bin(s).count("1") for s in range(dim)])
    cols = []
    for m in range(n_qubits + 1):
        idx = np.flatnonzero(n_up == m)
        c = len(idx)
        sym = np.zeros(dim)
        sym[idx] = 1.0 / sqrt(c)
        cols.append(sym)
        if c > 1:
            # orthonormal complement of the uniform vector inside the block
            _, _, vh = np.linalg.svd(np.ones((1, c)))
            for row in vh[1:]:
                v = np.zeros(dim)
                v[idx] = row
                cols.append(v)
    transform = np.column_stack(cols)
    transform.setflags(write=False)
    return transform


def build_space(n_qubits: int, n_max: int, dim_cap: int = DEFAULT_DIM_CAP) -> HilbertSpace:
    """Construct the qubits-times-oscillator space with a dimension guard."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    dim = 2**n_qubits * (n_max + 1)
    if dim > dim_cap:
        raise ResourceGuardError(
            f"requested space has dim={dim}, exceeding the cap of {dim_cap}"
        )
    return HilbertSpace(n_qubits, n_max)


@dataclass
class StateVector:
    """Complex amplitudes over a :class:`HilbertSpace`.

    States are unit-normalized; scratch states that are deliberately
    unnormalized must be flagged with ``unnormalized=True``.
    """

    space: HilbertSpace
    amplitudes: np.ndarray
    unnormalized: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, expected ({self.space.dim},)"
            )
        if not self.unnormalized and abs(self.norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"state norm^2 = {self.norm_sq:.12g} deviates from 1 by more than {NORM_TOL}"
            )

    @property
    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def overlap(self, other: "StateVector") -> complex:
        """Inner product ``<self|other>``."""
        if other.space != self.space:
            raise ValueError("states live in different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def squared_overlap(self, other: "StateVector") -> float:
        return abs(self.overlap(other)) ** 2

    def population(self, spins, fock_n: int) -> float:
        return abs(self.amplitudes[self.space.index(spins, fock_n)]) ** 2

    def copy(self) -> "StateVector":
        return StateVector(self.space, self.amplitudes.copy(), self.unnormalized)


def embed(space: HilbertSpace, spins, fock_n: int) -> StateVector:
    """Unit basis vector ``|spins, fock_n>``."""
    amplitudes = np.zeros(space.dim, dtype=complex)
    amplitudes[space.index(spins, fock_n)] = 1.0
    return StateVector(space, amplitudes)


def dicke_spin_words(n_qubits: int, m: int):
    """All spin words with ``m`` ions up, in index order."""
    words = []
    for ups in combinations(range(n_qubits), m):
        word = [SPIN_DOWN] * n_qubits
        for j in ups:
            word[j] = SPIN_UP
        words.append("".join(word))
    return sorted(words)


def make_dicke(n_qubits: int, m: int, space: HilbertSpace | None = None) -> StateVector:
    """Equal-amplitude symmetric superposition of all spin words with m ups.

    The motional factor is ``|0>``.  With ``space=None`` the state lives in a
    motionless space (``n_max = 0``); pass a space to embed it there instead.
    """
    if not 0 <= m <= n_qubits:
        raise ValueError(f"excitation number m={m} outside [0, {n_qubits}]")
    if space is None:
        space = HilbertSpace(n_qubits, 0)
    elif space.n_qubits != n_qubits:
        raise ValueError(
            f"space has {space.n_qubits} qubits, Dicke state needs {n_qubits}"
        )
    amplitudes = np.zeros(space.dim, dtype=complex)
    amp = 1.0 / np.sqrt(comb(n_qubits, m))
    for word in dicke_spin_words(n_qubits, m):
        amplitudes[space.index(word, 0)] = amp
    return StateVector(space, amplitudes)
