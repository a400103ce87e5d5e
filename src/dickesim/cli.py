"""Command-line front end: JSON config in, CSV/JSON data out.

Config files use explicit unit suffixes (``omega_peak_khz``, ``sigma_us``);
unknown keys are rejected.  One table, ``_SCHEMA``, gives each plain key its
:class:`ExperimentConfig` field, unit and rule; :func:`parse_config` and
:func:`resolved_snapshot` both read it.  A key missing from the file is not
passed on: :class:`ExperimentConfig` holds every default and resolves and
checks the config at construction, and the manifest reads it back.  Each
subcommand returns the data files it wrote; :func:`main` writes the one
``manifest.json``.  Frequencies in emitted data are ordinary Hz, times are
seconds.  Stdout carries data only (the result JSON for ``simulate``, the
run manifest for the other subcommands); diagnostics go to stderr.  Exit
codes: 0 success, 2 configuration error (:class:`ConfigError`), 3
numerical-guard error, exhausted memory, or any other ``ValueError`` raised
after the configuration was accepted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import make_dicke, spin_bits
from .drive import CompensationKind, CompensationMode, TWO_PI
from .errors import ConfigError, NumericsError, ResourceGuardError
from .experiment import (ExperimentConfig, PrepMode, default_sweep_values,
                         potentials_report, run_rap, sweep)
from .measurement import (fidelity_decomposition, fit_parity, parity_curve,
                          simulate_histogram, trace_out_motion)

_KHZ = TWO_PI * 1e3   # config kHz -> rad/s
_US = 1e-6            # config us -> s
_NM = _NS = 1e-9      # config nm -> m, config ns -> s


def _is_number(value) -> bool:
    # JSON true/false load as bool, which is an int subclass; Python's json
    # also reads NaN and Infinity, which no run can use
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


#: Checks of config values, keyed by what the error message says is expected.
_RULES = {
    "a number": _is_number,
    "a positive number": lambda v: _is_number(v) and v > 0,
    "a nonnegative number": lambda v: _is_number(v) and v >= 0,
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
}

#: The plain config keys: key, ExperimentConfig field, SI value of the key's
#: unit (None: no conversion), and rule: an int k for an integer >= k, or a
#: ``_RULES`` entry, where "... or null" lets null stand for a missing key.
#: A missing key is not passed on, so ExperimentConfig holds every default.
_SCHEMA = (
    ("n_qubits",         "n_qubits",              None, 1),
    ("n_max",            "n_max",                 None, 2),
    ("omega_peak_khz",   "omega_peak",            _KHZ, "a positive number"),
    ("sigma_us",         "sigma",                 _US,  "a positive number"),
    ("duration_factor",  "duration_factor",       None, "a positive number"),
    ("omega_v_khz",      "omega_v",               _KHZ, "a positive number"),
    ("eta",              "eta",                   None, "a positive number or null"),
    ("wavelength_nm",    "wavelength",            _NM,  "a positive number"),
    ("mass_amu",         "mass_amu",              None, "a positive number"),
    ("beam_angle_rad",   "beam_angle",            None, "a number"),
    ("ion_weights",      "ion_weights",           None, "a list of numbers or null"),
    ("ion_offsets_khz",  "ion_detuning_offsets",  _KHZ, "a list of numbers or null"),
    ("prep_weights",     "prep_weights",          None, "a list of numbers or null"),
    ("prep_offsets_khz", "prep_detuning_offsets", _KHZ, "a list of numbers or null"),
    ("phases",           "n_phases",              None, 3),
    ("shots",            "shots",                 None, 1),
    ("seed",             "seed",                  None, 0),
    ("nbar",             "nbar",                  None, "a nonnegative number"),
    ("dt_ns",            "dt",                    _NS,  "a positive number or null"),
)
#: CompensationMode's numbers, read in every mode and used in ``effective``
_COMPENSATION = (
    ("power_ratio",       "power_ratio",   None, "a number"),
    ("comp_detuning_khz", "comp_detuning", _KHZ, "a number"),
)
_REQUIRED_KEYS = ("n_qubits", "n_max", "omega_peak_khz", "sigma_us",
                  "chirp_khz", "compensation")
_KEYS = frozenset(row[0] for row in _SCHEMA + _COMPENSATION) | {
    "chirp_khz", "compensation", "prep"}


def _fail_key(key: str) -> ConfigError:
    hints = [k for k in _KEYS if k.startswith(key + "_")]
    hint = f"; did you mean {hints[0]!r} (unit suffix required)" if hints else ""
    return ConfigError(f"unknown config key {key!r}{hint}")


def _count(name: str, value, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name}: expected an integer >= {minimum}, got {value!r}")
    return value


def _fields(raw: dict, rows) -> dict:
    """Checked field values, in SI units, of the ``rows`` keys present in ``raw``."""
    fields = {}
    for key, name, unit, rule in rows:
        if key not in raw:
            continue
        value = raw[key]
        if isinstance(rule, int):
            fields[name] = _count(key, value, rule)
            continue
        if value is None and rule.endswith(" or null"):
            continue
        if not _RULES[rule.removesuffix(" or null")](value):
            raise ConfigError(f"{key}: expected {rule}, got {value!r}")
        scale = 1.0 if unit is None else unit
        fields[name] = (tuple(float(v) * scale for v in value) if isinstance(value, list)
                        else float(value) * scale)
    return fields


def _member(raw: dict, key: str, enum):
    """The ``enum`` member whose value the config gives for ``key``."""
    try:
        return enum(raw[key])
    except ValueError:
        values = "|".join(member.value for member in enum)
        raise ConfigError(f"{key}: expected {values}, got {raw[key]!r}") from None


def _in_units(value, unit):
    """A field value (number, tuple or None) back in its config unit."""
    if isinstance(value, tuple):
        return [_in_units(v, unit) for v in value]
    return value if value is None or unit is None else value / unit


def parse_config(path) -> ExperimentConfig:
    """Load and strictly validate a JSON config file.

    The config is accepted only if :class:`ExperimentConfig` accepts it, which
    builds the Hilbert space, the drives and the thermal components.
    """
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
        if key not in _KEYS:
            raise _fail_key(key)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")

    fields = _fields(raw, _SCHEMA)
    chirp = _fields(raw, [("chirp_khz", "chirp", _KHZ, "a positive number")])["chirp"]
    fields.update(chirp_start=-chirp, chirp_end=+chirp)
    kind = _member(raw, "compensation", CompensationKind)
    compensation = _fields(raw, _COMPENSATION)
    if "prep" in raw:
        fields["prep"] = _member(raw, "prep", PrepMode)
    if kind is CompensationKind.EFFECTIVE and compensation.get("comp_detuning") == 0.0:
        raise ConfigError("invalid configuration: comp_detuning_khz must be nonzero "
                          "under compensation effective")
    try:
        fields["compensation"] = CompensationMode(
            kind, **(compensation if kind is CompensationKind.EFFECTIVE else {}))
        return ExperimentConfig(**fields)
    except (ValueError, ResourceGuardError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def resolved_snapshot(cfg: ExperimentConfig) -> dict:
    """Config with every default materialized, in config-file units."""
    snapshot = {key: _in_units(getattr(cfg, name), unit)
                for key, name, unit, _ in _SCHEMA}
    snapshot.update({key: _in_units(getattr(cfg.compensation, name), unit)
                     for key, name, unit, _ in _COMPENSATION})
    snapshot.update(
        eta=cfg.resolved_eta(),
        chirp_khz=cfg.chirp_end / _KHZ,
        compensation=cfg.compensation.kind.value,
        prep=cfg.prep.value,
    )
    return snapshot


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


def write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig,
                   files) -> Path:
    body = {
        "command": command,
        "config": resolved_snapshot(cfg),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": {f.name: _sha256(f) for f in files},
        "seed": cfg.seed,
        "tool": "dickesim",
        "version": __version__,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_simulate(cfg: ExperimentConfig, out_dir: Path, args) -> list:
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
    path = out_dir / "simulate.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return [path]


def _cmd_potentials(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    report = potentials_report(cfg)
    rows = []
    for name in ("none", "zero_carrier"):
        var = report.variants[name]
        for k, t in enumerate(report.times):
            rows.append((float(t), *(float(e / TWO_PI) for e in var.energies[k]),
                         float(var.alpha_over_omega_sq[k]), name))
    path = out_dir / "potentials.csv"
    levels = [f"eps_{k}" for k in range(report.variants["none"].energies.shape[1])]
    _write_csv(path, ["t_s", *levels, "alpha_over_omega_sq", "variant"], rows)
    return [path]


def _cmd_parity(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    if cfg.n_qubits != 2:
        raise ConfigError(
            f"parity is defined for two ions; the config has n_qubits={cfg.n_qubits}")
    rho = trace_out_motion(make_dicke(2, 1)) if args.ideal else run_rap(cfg).rho
    curve = parity_curve(rho, np.linspace(0.0, math.pi, cfg.n_phases, endpoint=False))
    pops = np.clip(curve.populations, 0.0, None)
    counts = np.random.default_rng(cfg.seed).multinomial(
        cfg.shots, pops / pops.sum(axis=1, keepdims=True))
    sampled = (counts[:, 0] + counts[:, 3] - counts[:, 1] - counts[:, 2]) / cfg.shots
    path = out_dir / "parity.csv"
    _write_csv(path, ["phi_rad", "parity_exact", "parity_sampled"],
               zip(curve.phi.tolist(), curve.values.tolist(), sampled.tolist()))
    fit = fit_parity(zip(curve.phi, curve.values))
    fit_path = out_dir / "parity_fit.json"
    fit_path.write_text(json.dumps({
        "cos_amp": fit.cos_amp, "offset": fit.offset,
        "residual_rms": fit.residual_rms, "sin_amp": fit.sin_amp,
    }, sort_keys=True, indent=2) + "\n")
    return [path, fit_path]


def _cmd_histogram(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    classes = np.bincount(spin_bits(cfg.n_qubits).sum(axis=1),
                          weights=run_rap(cfg).rho.populations())
    hist = simulate_histogram(classes, shots=cfg.shots, seed=cfg.seed)
    rows = [(int(c), int(f)) for c, f in enumerate(hist)]
    path = out_dir / "histogram.csv"
    _write_csv(path, ["counts", "frequency"], rows)
    return [path]


def _cmd_sweep(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    result = sweep(cfg, args.axis, default_sweep_values(cfg, args.axis, args.points))
    rows = []
    for k, value in enumerate(result.values):
        axis_value = value if args.axis == "width" else value / TWO_PI
        rows.append((float(axis_value), float(result.fidelity[k]),
                     float(result.diag_sum[k]), float(result.offdiag[k]),
                     float(result.bound[k])))
    path = out_dir / "sweep.csv"
    _write_csv(path, ["axis_value", "fidelity", "diag_sum", "offdiag",
                      "diabatic_bound"], rows)
    if result.partial:
        failed = [f"{v:.6g}: {e}" for v, e in zip(result.values, result.errors) if e]
        print("partial sweep; failed points:\n  " + "\n  ".join(failed), file=sys.stderr)
    return [path]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickesim",
        description="Simulate entangled-state generation on chirped sideband pulses.")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="final populations, fidelity and diabatic_bound, the "
                   "peak adiabaticity ratio: a first-order estimate that leaves out the "
                   "pulse-window edges").set_defaults(run=_cmd_simulate)
    sub.add_parser("potentials", help="adiabatic energies and |alpha/omega|^2"
                   ).set_defaults(run=_cmd_potentials)
    p_parity = sub.add_parser("parity", help="parity versus analysis phase")
    p_parity.add_argument("--ideal", action="store_true",
                          help="use the ideal target state instead of simulating")
    p_parity.set_defaults(run=_cmd_parity)
    sub.add_parser("histogram", help="simulated fluorescence histogram"
                   ).set_defaults(run=_cmd_histogram)
    p_sweep = sub.add_parser("sweep", help="fidelity across a pulse parameter")
    p_sweep.add_argument("--axis", choices=("width", "peak"), required=True)
    p_sweep.add_argument("--points", type=int, default=15)
    p_sweep.set_defaults(run=_cmd_sweep)
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
        files = args.run(cfg, out_dir, args)
        manifest = write_manifest(out_dir, args.command, cfg, files)
        print((files[0] if args.command == "simulate" else manifest).read_text(), end="")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ResourceGuardError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
