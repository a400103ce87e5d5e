"""Independent reference implementations the tests compare the package against.

Each helper is a direct, unoptimised formula: amplitude-based readouts of a
pure state, the two-ion three-class readout model, threshold classification
of a histogram, and small operators and curve statistics that only tests need.
"""

import numpy as np

from dickesim import InternalDensityMatrix, make_dicke


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
    return {space.basis_state(s * space.n_fock).spins: float(p)
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
    return space.atom_number + space.fock_number


def swap_operator(space):
    """Exchange of the two ions' spin labels (two ions)."""
    perm = np.zeros((4, 4))
    for i, word in enumerate(["dd", "du", "ud", "uu"]):
        perm[space.index(word[::-1], 0) // space.n_fock, i] = 1.0
    return np.kron(perm, np.eye(space.n_fock))
