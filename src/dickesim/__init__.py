"""Simulator and analysis toolkit for generating symmetric entangled states
of trapped ions with chirped sideband pulses.

The package covers the full pipeline: Hilbert-space construction, the
rotating-frame drive Hamiltonian with carrier-shift compensation modes, a
unitary fourth-order propagator that composes each step from five Strang
splits along the motional (Fock) number (on the Dicke states when identical
ions start there), adiabatic-potential analysis with the peak adiabaticity
ratio on the drive Hamiltonian projected onto its low-excitation Dicke
states, the reduced internal state of any ion number with its populations, Dicke-state
fidelity and fluorescence readout, two-ion parity oscillations, and
robustness sweeps.
"""

__version__ = "0.1.0"

from .core import HilbertSpace, StateVector, build_space, embed, make_dicke
from .drive import (CompensationKind, CompensationMode, DriveConfig,
                    PulseShape, Sideband, derive_eta, detuning, envelope)
from .errors import (ConfigError, ContinuityError, DegeneracyError,
                     NumericsError, ResourceGuardError, StepSizeError,
                     TruncationLeakError)
from .experiment import (ExperimentConfig, PrepMode, RapResult, SweepResult,
                         potentials_report, run_rap, sweep)
from .measurement import (InternalDensityMatrix, ParityCurve, ParityFit,
                          dicke_fidelity, fit_parity, parity_curve,
                          simulate_histogram, trace_out_motion)
from .propagator import EvolutionResult, evolve
from .spectral import (AdiabaticFrame, DiabaticBound, ReducedModel,
                       adiabatic_spectrum, diabatic_bound,
                       nonadiabatic_coupling, reduced_model,
                       spectrum_with_refinement)

__all__ = [
    "AdiabaticFrame", "CompensationKind", "CompensationMode",
    "ConfigError", "ContinuityError", "DegeneracyError", "DiabaticBound",
    "DriveConfig", "EvolutionResult", "ExperimentConfig", "HilbertSpace",
    "InternalDensityMatrix", "NumericsError", "ParityCurve", "ParityFit",
    "PrepMode", "PulseShape", "RapResult", "ReducedModel",
    "ResourceGuardError", "Sideband", "StateVector", "StepSizeError",
    "SweepResult", "TruncationLeakError", "adiabatic_spectrum", "build_space",
    "derive_eta", "detuning", "diabatic_bound", "dicke_fidelity", "embed",
    "envelope", "evolve", "fit_parity", "make_dicke", "nonadiabatic_coupling",
    "parity_curve", "potentials_report", "reduced_model", "run_rap",
    "simulate_histogram", "spectrum_with_refinement", "sweep",
    "trace_out_motion",
]
