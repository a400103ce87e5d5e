"""Command-line front end: JSON config in, CSV/JSON data out.

Config files use explicit unit suffixes (``omega_peak_khz``, ``sigma_us``);
unknown keys are rejected.  Frequencies in emitted data are ordinary Hz,
times are seconds.  Stdout carries data only (the result JSON for
``simulate``, the run manifest for the file-emitting subcommands);
diagnostics go to stderr.  Exit codes: 0 success, 2 configuration error
(:class:`ConfigError`), 3 numerical-guard error or any other ``ValueError``
raised after the configuration was accepted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import make_dicke
from .drive import CompensationMode, TWO_PI
from .errors import ConfigError, NumericsError, ResourceGuardError
from .experiment import (ExperimentConfig, PrepMode, default_sweep_values,
                         potentials_report, run_rap, sweep)
from .measurement import (fidelity_decomposition, fit_parity, parity_curve,
                          rotate_global, simulate_histogram, trace_out_motion)

_KHZ = TWO_PI * 1e3   # config kHz -> rad/s

_REQUIRED_KEYS = ("n_qubits", "n_max", "omega_peak_khz", "sigma_us",
                  "chirp_khz", "compensation")
_OPTIONAL_KEYS = {
    "duration_factor": 2.36,
    "omega_v_khz": 700.0,
    "eta": None,
    "wavelength_nm": 729.0,
    "mass_amu": 40.0,
    "beam_angle_rad": 0.0,
    "power_ratio": 0.60,
    "comp_detuning_khz": 400.0,
    "ion_weights": None,
    "ion_offsets_khz": None,
    "prep": "ideal_fock",
    "prep_weights": None,
    "prep_offsets_khz": None,
    "phases": 20,
    "shots": 1000,
    "seed": 12345,
    "nbar": 0.0,
    "dt_ns": None,
}
_ALL_KEYS = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)


def _fail_key(key: str) -> ConfigError:
    hints = [k for k in _ALL_KEYS if k.startswith(key + "_")]
    hint = f"; did you mean {hints[0]!r} (unit suffix required)" if hints else ""
    return ConfigError(f"unknown config key {key!r}{hint}")


def _is_number(value) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(raw: dict, key: str) -> float:
    value = raw[key]
    if not _is_number(value):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    return float(value)


def _positive(raw: dict, key: str) -> float:
    value = raw[key]
    if not _is_number(value) or not value > 0:
        raise ConfigError(f"{key}: expected a positive number, got {value!r}")
    return float(value)


def _count(name: str, value, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name}: expected an integer >= {minimum}, got {value!r}")
    return value


def _tuple_or_none(raw, key, scale=1.0):
    value = raw.get(key)
    if value is None:
        return ()
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
    return tuple(float(v) * scale for v in value)


def parse_config(path) -> ExperimentConfig:
    """Load and strictly validate a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    for key in raw:
        if key not in _ALL_KEYS:
            raise _fail_key(key)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
    merged = dict(_OPTIONAL_KEYS)
    merged.update(raw)

    n_qubits = _count("n_qubits", merged["n_qubits"], 1)
    n_max = _count("n_max", merged["n_max"], 0)

    comp_name = merged["compensation"]
    if comp_name == "none":
        compensation = CompensationMode.none()
    elif comp_name == "zero_carrier":
        compensation = CompensationMode.zero_carrier()
    elif comp_name == "effective":
        compensation = CompensationMode.effective(
            power_ratio=_number(merged, "power_ratio"),
            comp_detuning=_number(merged, "comp_detuning_khz") * _KHZ)
    else:
        raise ConfigError(
            f"compensation: expected none|zero_carrier|effective, got {comp_name!r}")

    prep_name = merged["prep"]
    try:
        prep = PrepMode(prep_name)
    except ValueError:
        raise ConfigError(
            f"prep: expected ideal_fock|simulated_pulses, got {prep_name!r}") from None

    eta = merged["eta"]
    if eta is not None and not (_is_number(eta) and 0 < eta < 0.3):
        raise ConfigError(f"eta: expected a number in (0, 0.3) or null, got {eta!r}")

    chirp = _positive(merged, "chirp_khz") * _KHZ
    dt_ns = merged["dt_ns"]
    if dt_ns is not None and not (_is_number(dt_ns) and dt_ns > 0):
        raise ConfigError(f"dt_ns: expected a positive number or null, got {dt_ns!r}")
    nbar = merged["nbar"]
    if not _is_number(nbar) or nbar < 0:
        raise ConfigError(f"nbar: expected a nonnegative number, got {nbar!r}")
    for key, minimum in (("phases", 3), ("shots", 1), ("seed", 0)):
        _count(key, merged[key], minimum)

    cfg = ExperimentConfig(
        n_qubits=n_qubits,
        n_max=n_max,
        omega_peak=_positive(merged, "omega_peak_khz") * _KHZ,
        sigma=_positive(merged, "sigma_us") * 1e-6,
        duration_factor=_positive(merged, "duration_factor"),
        chirp_start=-chirp,
        chirp_end=+chirp,
        omega_v=_positive(merged, "omega_v_khz") * _KHZ,
        eta=None if eta is None else float(eta),
        wavelength=_positive(merged, "wavelength_nm") * 1e-9,
        mass_amu=_positive(merged, "mass_amu"),
        beam_angle=_number(merged, "beam_angle_rad"),
        compensation=compensation,
        ion_weights=_tuple_or_none(merged, "ion_weights"),
        ion_detuning_offsets=_tuple_or_none(merged, "ion_offsets_khz", _KHZ),
        prep=prep,
        prep_weights=_tuple_or_none(merged, "prep_weights"),
        prep_detuning_offsets=_tuple_or_none(merged, "prep_offsets_khz", _KHZ),
        n_phases=merged["phases"],
        shots=merged["shots"],
        seed=merged["seed"],
        nbar=float(nbar),
        dt=None if dt_ns is None else float(dt_ns) * 1e-9,
    )
    try:
        cfg.space()          # dimension cap
        cfg.rap_drive()      # eta window, weight lengths, ...
        cfg.thermal_components()   # nbar > 0 needs room below the guard level
    except (ValueError, ResourceGuardError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return cfg


def resolved_snapshot(cfg: ExperimentConfig) -> dict:
    """Config with every default materialized, in config-file units."""
    return {
        "n_qubits": cfg.n_qubits,
        "n_max": cfg.n_max,
        "omega_peak_khz": cfg.omega_peak / _KHZ,
        "sigma_us": cfg.sigma * 1e6,
        "duration_factor": cfg.duration_factor,
        "chirp_khz": cfg.chirp_end / _KHZ,
        "omega_v_khz": cfg.omega_v / _KHZ,
        "eta": cfg.resolved_eta(),
        "wavelength_nm": cfg.wavelength * 1e9,
        "mass_amu": cfg.mass_amu,
        "beam_angle_rad": cfg.beam_angle,
        "compensation": cfg.compensation.kind.value,
        "power_ratio": cfg.compensation.power_ratio,
        "comp_detuning_khz": cfg.compensation.comp_detuning / _KHZ,
        "ion_weights": list(cfg.rap_drive().ion_weights),
        "ion_offsets_khz": [o / _KHZ for o in cfg.rap_drive().ion_detuning_offsets],
        "prep": cfg.prep.value,
        "prep_weights": list(cfg.prep_weights),
        "prep_offsets_khz": [o / _KHZ for o in cfg.prep_detuning_offsets],
        "phases": cfg.n_phases,
        "shots": cfg.shots,
        "seed": cfg.seed,
        "nbar": cfg.nbar,
        "dt_ns": None if cfg.dt is None else cfg.dt * 1e9,
    }


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.12g}"


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    command: str
    seed: int
    config: dict
    outputs: dict
    version: str = __version__
    created_utc: str = ""

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "config": self.config,
            "created_utc": self.created_utc or datetime.now(timezone.utc).isoformat(),
            "outputs": self.outputs,
            "seed": self.seed,
            "tool": "dickesim",
            "version": self.version,
        }
        return json.dumps(body, sort_keys=True, indent=2)


def write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig,
                   files) -> Path:
    manifest = RunManifest(
        command=command, seed=cfg.seed, config=resolved_snapshot(cfg),
        outputs={f.name: _sha256(f) for f in files},
    )
    path = out_dir / "manifest.json"
    path.write_text(manifest.to_json() + "\n")
    return path


def verify_manifest(path) -> bool:
    """Re-hash the files a manifest references and compare checksums."""
    path = Path(path)
    body = json.loads(path.read_text())
    return all(_sha256(path.parent / name) == digest
               for name, digest in body["outputs"].items())


def _phi_grid(cfg: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, math.pi, cfg.n_phases, endpoint=False)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_simulate(cfg: ExperimentConfig, out_dir: Path):
    res = run_rap(cfg)
    bound = (None if res.bound is None
             else {"value": res.bound.value, "time_s": res.bound.time})
    payload = {
        "diabatic_bound": bound,
        "fidelity": res.fidelity,
        "norm_drift": res.evolution.norm_drift,
        "populations": {k: v for k, v in sorted(res.populations.items())},
    }
    if cfg.n_qubits == 2:
        payload["diag_sum"], payload["offdiag"] = fidelity_decomposition(res.rho)
    text = json.dumps(payload, sort_keys=True, indent=2)
    (out_dir / "simulate.json").write_text(text + "\n")
    write_manifest(out_dir, "simulate", cfg, [out_dir / "simulate.json"])
    print(text)


def _cmd_potentials(cfg: ExperimentConfig, out_dir: Path):
    report = potentials_report(cfg)
    rows = []
    for name in ("none", "zero_carrier"):
        var = report.variants[name]
        for k, t in enumerate(report.times):
            rows.append((float(t), *(float(e / TWO_PI) for e in var.energies[k]),
                         float(var.alpha_over_omega_sq[k]), name))
    path = out_dir / "potentials.csv"
    _write_csv(path, ["t_s", "eps_0", "eps_1", "eps_2", "eps_3", "eps_4",
                      "alpha_over_omega_sq", "variant"], rows)
    manifest = write_manifest(out_dir, "potentials", cfg, [path])
    print(manifest.read_text(), end="")


def _cmd_parity(cfg: ExperimentConfig, out_dir: Path, ideal: bool):
    if cfg.n_qubits != 2:
        raise ConfigError(
            f"parity is defined for two ions; the config has n_qubits={cfg.n_qubits}")
    rho = trace_out_motion(make_dicke(2, 1)) if ideal else run_rap(cfg).rho
    grid = _phi_grid(cfg)
    exact = parity_curve(rho, grid)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for phi, value in exact:
        pops = rotate_global(rho, phi).populations()
        pops = np.clip(pops, 0.0, None)
        counts = rng.multinomial(cfg.shots, pops / pops.sum())
        sampled = float((counts[0] + counts[3] - counts[1] - counts[2]) / cfg.shots)
        rows.append((float(phi), float(value), sampled))
    path = out_dir / "parity.csv"
    _write_csv(path, ["phi_rad", "parity_exact", "parity_sampled"], rows)
    fit = fit_parity([(phi, v) for phi, v, _ in rows])
    fit_path = out_dir / "parity_fit.json"
    fit_path.write_text(json.dumps({
        "cos_amp": fit.cos_amp, "offset": fit.offset,
        "residual_rms": fit.residual_rms, "sin_amp": fit.sin_amp,
    }, sort_keys=True, indent=2) + "\n")
    manifest = write_manifest(out_dir, "parity", cfg, [path, fit_path])
    print(manifest.read_text(), end="")


def _cmd_histogram(cfg: ExperimentConfig, out_dir: Path):
    classes = np.zeros(cfg.n_qubits + 1)
    for word, p in run_rap(cfg).populations.items():
        classes[word.count("u")] += p
    hist = simulate_histogram(classes, shots=cfg.shots, seed=cfg.seed)
    rows = [(int(c), int(f)) for c, f in enumerate(hist)]
    path = out_dir / "histogram.csv"
    _write_csv(path, ["counts", "frequency"], rows)
    manifest = write_manifest(out_dir, "histogram", cfg, [path])
    print(manifest.read_text(), end="")


def _cmd_sweep(cfg: ExperimentConfig, out_dir: Path, axis: str, points: int):
    center = 2.0 * cfg.sigma if axis == "width" else cfg.omega_peak
    values = default_sweep_values(center, points)
    result = sweep(cfg, axis, values)
    rows = []
    for k, value in enumerate(result.values):
        axis_value = value if axis == "width" else value / TWO_PI
        rows.append((float(axis_value), float(result.fidelity[k]),
                     float(result.diag_sum[k]), float(result.offdiag[k]),
                     float(result.bound[k])))
    path = out_dir / "sweep.csv"
    _write_csv(path, ["axis_value", "fidelity", "diag_sum", "offdiag",
                      "diabatic_bound"], rows)
    if result.partial:
        failed = [f"{v:.6g}: {e}" for v, e in zip(result.values, result.errors) if e]
        print("partial sweep; failed points:\n  " + "\n  ".join(failed), file=sys.stderr)
    manifest = write_manifest(out_dir, "sweep", cfg, [path])
    print(manifest.read_text(), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickesim",
        description="Simulate entangled-state generation on chirped sideband pulses.")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="final populations, fidelity, diabatic bound")
    sub.add_parser("potentials", help="adiabatic energies and |alpha/omega|^2")
    p_parity = sub.add_parser("parity", help="parity versus analysis phase")
    p_parity.add_argument("--ideal", action="store_true",
                          help="use the ideal target state instead of simulating")
    sub.add_parser("histogram", help="simulated fluorescence histogram")
    p_sweep = sub.add_parser("sweep", help="fidelity across a pulse parameter")
    p_sweep.add_argument("--axis", choices=("width", "peak"), required=True)
    p_sweep.add_argument("--points", type=int, default=15)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=_count("--seed", args.seed, 0))
        if args.command == "sweep":
            _count("--points", args.points, 1)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            _cmd_simulate(cfg, out_dir)
        elif args.command == "potentials":
            _cmd_potentials(cfg, out_dir)
        elif args.command == "parity":
            _cmd_parity(cfg, out_dir, args.ideal)
        elif args.command == "histogram":
            _cmd_histogram(cfg, out_dir)
        elif args.command == "sweep":
            _cmd_sweep(cfg, out_dir, args.axis, args.points)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ResourceGuardError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
