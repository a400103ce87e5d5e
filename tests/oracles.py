"""Independent reference implementations the tests compare the package against.

Each helper is a direct, unoptimised formula: amplitude-based readouts of a
pure state, the two-ion three-class readout model, threshold classification
of a histogram, dense full-space operators (``annihilation``,
``fock_number``, ``sigma_plus``, ``sigma_x``, ``up_projector``,
``atom_number``) and the dense Hamiltonian built from them by the formula in
the ``drive`` module docstring (``dense_terms``, ``hamiltonian_matrix``; it
never calls ``drive_terms``, so the dense propagators in the tests check the
factored record rather than repeat it), small operators and curve
statistics that only tests need, the per-phase analysis pulse
(``rotation_matrix``, ``rotate_global``, ``parity``) that the batched
``parity_curve`` is checked against, the components of a dense coupling
pattern (``connected_components``) that the propagator's block search is
checked against, the whole 2**N x 2**N permutation-symmetric (bright/dark)
basis change (``symmetric_transform``) and the reduced model's terms read
off the drive record rotated by it (``symmetric_reduced_terms``),
four run helpers only tests use (``prepare_fock1``,
``truncation_overlap``, ``checkpoint_states``, ``rap_pair_gap``), the inner
products and basis populations of pure states (``overlap``,
``squared_overlap``, ``population``), and ``drive_config``, which fills in
identical, undetuned ions where a test leaves the per-ion lists out.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from dickesim import InternalDensityMatrix, StateVector, evolve, make_dicke, reduced_model
from dickesim.drive import (CompensationKind, CompensationMode, DriveConfig, Sideband,
                            drive_terms, envelope)
from dickesim.experiment import ExperimentConfig, _prepare_from, _rap_frame


def drive_config(**kwargs) -> DriveConfig:
    """``DriveConfig(**kwargs)`` with weights 1 and offsets 0 for the lists not given."""
    n = kwargs["space"].n_qubits
    kwargs.setdefault("ion_weights", (1.0,) * n)
    kwargs.setdefault("ion_detuning_offsets", (0.0,) * n)
    return DriveConfig(**kwargs)


def overlap(bra: StateVector, ket: StateVector) -> complex:
    """Inner product ``<bra|ket>``."""
    if bra.space != ket.space:
        raise ValueError("states live in different spaces")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def squared_overlap(bra: StateVector, ket: StateVector) -> float:
    return abs(overlap(bra, ket)) ** 2


def population(psi: StateVector, spins, fock_n: int) -> float:
    """Population of the basis state ``|spins, fock_n>``."""
    return abs(psi.amplitudes[psi.space.index(spins, fock_n)]) ** 2


def psi_dicke_fidelity(psi, m=1):
    """``sum_n |<D_N^(m)|_spin <n|psi>|^2`` straight from the amplitudes."""
    space = psi.space
    d = make_dicke(space.n_qubits, m).amplitudes
    amp = psi.amplitudes.reshape(2**space.n_qubits, space.n_fock)
    return float(np.sum(np.abs(d.conj() @ amp) ** 2))


def psi_internal_populations(psi):
    """Spin-word populations with the motion summed out of the amplitudes."""
    space = psi.space
    amp = psi.amplitudes.reshape(2**space.n_qubits, space.n_fock)
    pops = np.sum(np.abs(amp) ** 2, axis=1)
    return {space.basis_state(s * space.n_fock)[0]: float(p)
            for s, p in enumerate(pops)}


def three_class_histogram(populations, shots, seed, bright_mean=70.0, background=0.5):
    """Two-ion readout: ``(P_dd, P_mid, P_uu)`` with 2, 1 and 0 bright ions."""
    rng = np.random.default_rng(seed)
    means = background + bright_mean * np.array([2.0, 1.0, 0.0])
    classes = rng.choice(3, size=shots, p=np.asarray(populations, dtype=float))
    return np.bincount(rng.poisson(means[classes]))


def threshold_estimate(histogram, thresholds=(35, 105)):
    """Two-ion class fractions ``(P_dd, P_mid, P_uu)`` from count thresholds.

    Counts ``<= low`` are dark (both ions up), counts in ``(low, high]`` one
    bright ion, counts ``> high`` two bright ions.
    """
    low, high = thresholds
    histogram = np.asarray(histogram)
    total = int(histogram.sum())
    values = np.arange(len(histogram))
    n_uu = int(histogram[values <= low].sum())
    n_mid = int(histogram[(values > low) & (values <= high)].sum())
    return np.array([total - n_uu - n_mid, n_mid, n_uu], dtype=float) / total


def annihilation(space):
    """COM-mode annihilation operator ``a`` on the full space."""
    a = np.diag(np.sqrt(np.arange(1, space.n_fock)), 1)
    return np.kron(np.eye(2**space.n_qubits), a)


def fock_number(space):
    """Motional number operator ``a'a`` on the full space."""
    return np.kron(np.eye(2**space.n_qubits), np.diag(np.arange(space.n_fock, dtype=float)))


def qubit_op(space, ion, op2):
    """Lift a 2x2 single-qubit operator acting on ``ion`` (0-based) to the full space."""
    if not 0 <= ion < space.n_qubits:
        raise ValueError(f"ion index {ion} outside [0, {space.n_qubits})")
    mat = np.eye(1)
    for j in range(space.n_qubits):
        mat = np.kron(mat, op2 if j == ion else np.eye(2))
    return np.kron(mat, np.eye(space.n_fock))


def sigma_plus(space, ion):
    """``|u><d|`` on one ion."""
    return qubit_op(space, ion, np.array([[0.0, 0.0], [1.0, 0.0]]))


def sigma_x(space, ion):
    return qubit_op(space, ion, np.array([[0.0, 1.0], [1.0, 0.0]]))


def up_projector(space, ion):
    return qubit_op(space, ion, np.array([[0.0, 0.0], [0.0, 1.0]]))


def atom_number(space):
    """Number of ions in the up state, summed over ions."""
    return sum(up_projector(space, j) for j in range(space.n_qubits))


@lru_cache(maxsize=64)
def dense_terms(cfg: DriveConfig):
    """``S0..S3`` of ``H = S0 - delta_c S1 + Omega S2 + Omega^2 S3`` on the full space.

    Built operator by operator from the formula in the ``drive`` module
    docstring, without :func:`dickesim.drive.drive_terms`; cached (read-only
    arrays) because the dense propagators ask for it at every step.
    """
    space = cfg.space
    s0 = cfg.omega_v * fock_number(space)
    s1 = atom_number(space)
    s2 = np.zeros((space.dim, space.dim))
    s3 = np.zeros((space.dim, space.dim))
    a = annihilation(space)
    ladder = {Sideband.RED: a, Sideband.BLUE: a.T}.get(cfg.sideband)
    sideband_drive = cfg.sideband is not Sideband.CARRIER
    comp = cfg.compensation
    for j, (w, off) in enumerate(zip(cfg.ion_weights, cfg.ion_detuning_offsets)):
        s0 -= off * up_projector(space, j)
        if not (sideband_drive and comp.kind is CompensationKind.ZERO_CARRIER):
            s2 += (w / 2.0) * sigma_x(space, j)
        if ladder is not None:
            half = sigma_plus(space, j) @ ladder
            s2 += (w * cfg.eta / 2.0) * (half + half.T)
        if sideband_drive and comp.kind is CompensationKind.EFFECTIVE:
            s3 -= comp.power_ratio * w * w / (4.0 * comp.comp_detuning) * up_projector(space, j)
    terms = (s0, s1, s2, s3)
    for m in terms:
        m.setflags(write=False)
    return terms


def hamiltonian_matrix(cfg: DriveConfig, t: float) -> np.ndarray:
    """Raw real-symmetric H(t) as an ndarray (rad/s), from :func:`dense_terms`."""
    s0, s1, s2, s3 = dense_terms(cfg)
    om = envelope(cfg.pulse, t)
    dc = cfg.carrier_detuning(t)
    return s0 - dc * s1 + om * s2 + om * om * s3


def connected_components(pattern: np.ndarray):
    """Components of the symmetric adjacency implied by a boolean matrix,
    each sorted and ordered by its first index."""
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


def symmetric_transform(n_qubits: int) -> np.ndarray:
    """Orthogonal spin-basis change grouping the spin words by up count.

    Columns come in blocks of fixed up count m = 0..N, each after every
    block of fewer ups.  The first column of a block is the uniform
    combination of its words (the Dicke state ``|D_N^(m)>``, bright), the
    rest an orthonormal complement of it inside the block (dark), so every
    column stays an eigenvector of the up-state number.  For two ions this
    is the bright/dark change of Morris and Shore.  The up counts are read
    off each index's binary spelling, not from :mod:`dickesim.core`.
    """
    n_up = np.array([bin(s).count("1") for s in range(2**n_qubits)])
    transform = np.zeros((2**n_qubits,) * 2)
    for m in range(n_qubits + 1):
        idx = np.flatnonzero(n_up == m)
        first = np.count_nonzero(n_up < m)
        transform[idx, first] = 1.0 / math.sqrt(len(idx))
        _, _, vh = np.linalg.svd(np.ones((1, len(idx))))
        transform[idx, first + 1:first + len(idx)] = vh[1:].T
    return transform


def symmetric_reduced_terms(cfg: DriveConfig, states) -> np.ndarray:
    """Dense (4, k, k) terms on the states ``(m up, n quanta)``, read off the
    drive record rotated by the whole :func:`symmetric_transform`, where
    ``|D_N^(m)>`` is the first column of the block with m ions up."""
    n_qubits = cfg.space.n_qubits
    first = [sum(math.comb(n_qubits, k) for k in range(m)) for m, _ in states]
    rotated = drive_terms(cfg).rotated(symmetric_transform(n_qubits))
    return rotated.assemble(first, [n for _, n in states])


def random_density_matrix(rng, dim=4):
    """Random valid state via the normalized ``A A'`` construction."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return InternalDensityMatrix(m / np.trace(m).real)


def count_local_minima(y, smooth=5):
    """Interior minima of a curve after moving-average smoothing."""
    y = np.asarray(y, dtype=float)
    if smooth > 1:
        y = np.convolve(y, np.ones(smooth) / smooth, mode="valid")
    d = np.diff(y)
    return int(np.sum((d[:-1] < 0) & (d[1:] >= 0)))


def count_local_maxima(y, smooth=5):
    return count_local_minima(-np.asarray(y, dtype=float), smooth=smooth)


def excitation_number(space):
    """Total excitation number: up-state ions plus motional quanta."""
    return atom_number(space) + fock_number(space)


def swap_operator(space):
    """Exchange of the two ions' spin labels (two ions)."""
    perm = np.zeros((4, 4))
    for i, word in enumerate(["dd", "du", "ud", "uu"]):
        perm[space.index(word[::-1], 0) // space.n_fock, i] = 1.0
    return np.kron(perm, np.eye(space.n_fock))


_PARITY_DIAG = np.array([1.0, -1.0, -1.0, 1.0])


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


def prepare_fock1(cfg: ExperimentConfig) -> StateVector:
    """State handed to the entangling pulse (nominally ``|d...d, 1>``)."""
    return _prepare_from(cfg, 0)


def truncation_overlap(cfg: ExperimentConfig, extra: int = 2) -> float:
    """Smallest squared overlap of a final state with a rerun at ``n_max + extra``.

    The Fock-truncation convergence check, taken over every thermal
    component ``run_rap`` keeps (only n = 0 when ``nbar = 0``): each is
    prepared and propagated at both cutoffs.  Values below ``1 - 1e-6`` mean
    the configured ``n_max`` is too small.
    """
    big = replace(cfg, n_max=cfg.n_max + extra)
    small_drive, big_drive = cfg.rap_drive(), big.rap_drive()
    n_fock, big_space = cfg.space().n_fock, big.space()
    worst = math.inf
    for n, _ in cfg.thermal_components():
        small = evolve(small_drive, _prepare_from(cfg, n), dt=cfg.dt)
        large = evolve(big_drive, _prepare_from(big, n), dt=big.dt)
        padded = np.zeros((2**cfg.n_qubits, big_space.n_fock), dtype=complex)
        padded[:, :n_fock] = small.final_state.amplitudes.reshape(-1, n_fock)
        lifted = StateVector(big_space, padded.reshape(-1))
        worst = min(worst, squared_overlap(lifted, large.final_state))
    return worst


def checkpoint_states(cfg: DriveConfig, psi0: StateVector, count: int = 8) -> list:
    """The states at ``count`` evenly spaced times up to the pulse's end, each its own run."""
    return [evolve(cfg, psi0, duration=t).final_state
            for t in np.linspace(0.0, cfg.pulse.duration, count + 1)[1:]]


def rap_pair_gap(cfg: ExperimentConfig, report, variant: str) -> np.ndarray:
    """``|E_j - E_i|`` of the RAP branch pair on one variant of a potentials report.

    The pair ``(i, j)`` is the one the variant's full reduced model picks on
    the report's grid, like the report itself.
    """
    compensation = getattr(CompensationMode, variant)()
    model = reduced_model(replace(cfg, compensation=compensation).rap_drive())
    _, (i, j) = _rap_frame(model, report.times)
    energies = report.variants[variant].energies
    return np.abs(energies[:, j] - energies[:, i])
