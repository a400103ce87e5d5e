"""Simulator and analysis toolkit for generating symmetric entangled states
of trapped ions with chirped sideband pulses.

The package covers the full pipeline: Hilbert-space construction, the
rotating-frame drive Hamiltonian with carrier-shift compensation modes, a
unitary propagator that Strang-splits each step along the motional (Fock)
number, adiabatic-potential analysis with diabatic-transition bounds on the
drive Hamiltonian projected onto its symmetric low-excitation states, the
reduced internal state of any ion number with its populations, Dicke-state
fidelity and fluorescence readout, two-ion parity oscillations, and
robustness sweeps.
"""

__version__ = "0.1.0"

from .core import (BasisState, HilbertSpace, StateVector, build_space, embed,
                   make_dicke)
from .drive import (CompensationKind, CompensationMode, DriveConfig,
                    PulseShape, Sideband, derive_eta, detuning, envelope)
from .errors import (ConfigError, ContinuityError, DegeneracyError,
                     NumericsError, ResourceGuardError, StepSizeError,
                     TruncationLeakError)
from .experiment import (ExperimentConfig, PrepMode, RapResult, SweepResult,
                         dicke_fidelity, potentials_report, prepare_fock1,
                         run_rap, sweep, truncation_overlap)
from .measurement import (InternalDensityMatrix, ParityFit, fit_parity,
                          parity, parity_curve, rotate_global,
                          simulate_histogram, trace_out_motion)
from .propagator import EvolutionResult, evolve, propagate_sequence
from .spectral import (AdiabaticFrame, DiabaticBound, ReducedModel,
                       adiabatic_spectrum, diabatic_bound,
                       nonadiabatic_coupling, reduced_model,
                       spectrum_with_refinement)

__all__ = [
    "AdiabaticFrame", "BasisState", "CompensationKind", "CompensationMode",
    "ConfigError", "ContinuityError", "DegeneracyError", "DiabaticBound",
    "DriveConfig", "EvolutionResult", "ExperimentConfig", "HilbertSpace",
    "InternalDensityMatrix", "NumericsError", "ParityFit", "PrepMode",
    "PulseShape", "RapResult", "ReducedModel", "ResourceGuardError",
    "Sideband", "StateVector", "StepSizeError", "SweepResult",
    "TruncationLeakError", "adiabatic_spectrum", "build_space", "derive_eta",
    "detuning", "diabatic_bound", "dicke_fidelity", "embed", "envelope",
    "evolve", "fit_parity", "make_dicke", "nonadiabatic_coupling", "parity",
    "parity_curve", "potentials_report", "prepare_fock1",
    "propagate_sequence", "reduced_model", "rotate_global", "run_rap",
    "simulate_histogram", "spectrum_with_refinement", "sweep",
    "trace_out_motion", "truncation_overlap",
]
