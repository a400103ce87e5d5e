"""Workload inputs and the operations they drive.

``make_op(workload, seed, index)`` is a pure function: the op kind depends on
the index alone (the mix), and the seed only jitters the physical inputs
around the README operating point, so no two ops share a configuration.
``execute`` runs one op and is the only timed call; ``summarise`` turns its
output into the plain numbers the oracle checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("rap_carrier", "sweep_compensated", "cli_analysis")

OMEGA_PEAK_KHZ = 145.0
SIGMA_US = 122.0
CHIRP_KHZ = 100.0
JITTER = 0.03               # relative half-width of the seeded input jitter
SWEEP_POINTS = 15
PARITY_PHASES = (2000, 2400)
CLI_MIX = (("simulate", 2), ("potentials", 2), ("parity", 2),
           ("simulate", 3), ("histogram", 2))
CLI_TIMEOUT_S = 120

#: ops per cycle; a run always ends on a whole cycle so medians see the full mix
CYCLE = {"rap_carrier": 1, "sweep_compensated": 2, "cli_analysis": len(CLI_MIX)}

POTENTIALS_STRIDE = 400     # rows of potentials.csv kept in the summary
PARITY_STRIDE = 200         # rows of parity.csv kept in the summary


@dataclass
class Op:
    workload: str
    index: int
    kind: str
    params: dict            # JSON-able inputs
    units: int              # work units for throughput_per_s


def make_op(workload: str, seed: int, index: int) -> Op:
    rng = random.Random(f"{workload}/{seed}/{index}")
    point = {"omega_peak_khz": OMEGA_PEAK_KHZ * (1.0 + rng.uniform(-JITTER, JITTER)),
             "sigma_us": SIGMA_US * (1.0 + rng.uniform(-JITTER, JITTER))}
    if workload == "rap_carrier":
        return Op(workload, index, "rap_none", {**point, "compensation": "none"}, 1)
    if workload == "sweep_compensated":
        axis = ("width", "peak")[index % 2]
        return Op(workload, index, f"sweep_{axis}",
                  {**point, "compensation": "zero_carrier", "axis": axis}, SWEEP_POINTS)
    if workload == "cli_analysis":
        sub, n_qubits = CLI_MIX[index % len(CLI_MIX)]
        config = {"n_qubits": n_qubits, "n_max": 5, **point, "chirp_khz": CHIRP_KHZ,
                  "compensation": "zero_carrier", "seed": rng.randrange(2**31)}
        argv = [sub]
        if sub == "parity":
            config["phases"] = rng.randint(*PARITY_PHASES)
            argv.append("--ideal")
        return Op(workload, index, f"{sub}_{n_qubits}ion",
                  {"config": config, "argv": argv}, 1)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def experiment_config(params: dict):
    """ExperimentConfig for an in-process op (config-file units in ``params``)."""
    from dickesim import ExperimentConfig
    from dickesim.drive import TWO_PI, CompensationMode

    chirp = TWO_PI * 1e3 * CHIRP_KHZ
    return ExperimentConfig(
        omega_peak=TWO_PI * 1e3 * params["omega_peak_khz"],
        sigma=params["sigma_us"] * 1e-6,
        chirp_start=-chirp, chirp_end=chirp,
        compensation=getattr(CompensationMode, params["compensation"])())


def sweep_values(cfg, axis: str):
    """The 15 log-spaced points over one decade around the op's own center."""
    import numpy as np

    center = 2.0 * cfg.sigma if axis == "width" else cfg.omega_peak
    return np.geomspace(center / math.sqrt(10.0), center * math.sqrt(10.0), SWEEP_POINTS)


def prepare(op: Op, out_dir: Path):
    """Untimed set-up of one op: its config object, or its config file."""
    if op.workload == "cli_analysis":
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "config.json"
        path.write_text(json.dumps(op.params["config"], indent=2) + "\n")
        return path
    cfg = experiment_config(op.params)
    if op.workload == "sweep_compensated":
        return cfg, sweep_values(cfg, op.params["axis"])
    return cfg


def execute(op: Op, prepared, out_dir: Path, subprocess_env: dict | None = None):
    """Run one op; this call is what the benchmark times.

    CLI ops run as ``python -m dickesim.cli`` children when ``subprocess_env``
    is given (what CLI users pay) and through ``cli.main(argv)`` otherwise.
    """
    import dickesim.experiment as experiment

    if op.workload == "rap_carrier":
        return experiment.run_rap(prepared)
    if op.workload == "sweep_compensated":
        cfg, values = prepared
        return experiment.sweep(cfg, op.params["axis"], values)
    argv = ["--config", str(prepared), "--out", str(out_dir / "out"), *op.params["argv"]]
    if subprocess_env is not None:
        proc = subprocess.run([sys.executable, "-m", "dickesim.cli", *argv],
                              env=subprocess_env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stderr
    import dickesim.cli as cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


# ----------------------------------------------------------------------
# summaries: the numbers the oracle checks and the reference stores
# ----------------------------------------------------------------------

def _rap_summary(res) -> dict:
    m = res.rho.matrix
    return {
        "fidelity": float(res.fidelity),
        "diag_sum": float(m[1, 1].real + m[2, 2].real),
        "offdiag": float(2.0 * m[1, 2].real),
        "populations": {k: float(v) for k, v in sorted(res.populations.items())},
        "bound": None if res.bound is None else float(res.bound.value),
        "norm_drift": float(res.evolution.norm_drift),
    }


def _sweep_summary(res) -> dict:
    return {
        "axis_values": [float(v) for v in res.values],
        "fidelity": [float(v) for v in res.fidelity],
        "diag_sum": [float(v) for v in res.diag_sum],
        "offdiag": [float(v) for v in res.offdiag],
        "bound": [float(v) for v in res.bound],
        "failed_points": sum(e is not None for e in res.errors),
    }


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _manifest_ok(out: Path) -> bool:
    """Re-hash every file the manifest lists (independent of the program's check)."""
    import hashlib

    body = json.loads((out / "manifest.json").read_text())
    return bool(body["outputs"]) and all(
        hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        for name, digest in body["outputs"].items())


def bytes_written(out_dir: Path) -> int:
    """Bytes of every file a CLI op wrote (data files and manifest)."""
    out = out_dir / "out"
    return sum(f.stat().st_size for f in out.iterdir() if f.is_file()) if out.is_dir() else 0


def _cli_summary(op: Op, code: int, stderr: str, out_dir: Path) -> dict:
    summary = {"exit": code}
    if code != 0:
        summary["stderr_tail"] = stderr.strip().splitlines()[-1:] if stderr.strip() else []
        return summary
    out = out_dir / "out"
    summary["manifest_ok"] = _manifest_ok(out)
    sub = op.params["argv"][0]
    config = op.params["config"]
    if sub == "simulate":
        data = json.loads((out / "simulate.json").read_text())
        bound = data["diabatic_bound"]
        summary.update({
            "n_qubits": config["n_qubits"],
            "fidelity": data["fidelity"],
            "populations": data["populations"],
            "bound": None if bound is None else bound["value"],
            "norm_drift": data["norm_drift"],
        })
        if "diag_sum" in data:
            summary["diag_sum"] = data["diag_sum"]
            summary["offdiag"] = data["offdiag"]
    elif sub == "potentials":
        _, rows = _read_csv(out / "potentials.csv")
        numeric = [[float(x) for x in row[:-1]] for row in rows]
        summary.update({
            "rows": len(rows),
            "variants": sorted({row[-1] for row in rows}),
            "finite": all(math.isfinite(x) for row in numeric for x in row),
            "alpha_min": min(row[-1] for row in numeric),
            "sample": numeric[::POTENTIALS_STRIDE],
        })
    elif sub == "parity":
        _, rows = _read_csv(out / "parity.csv")
        numeric = [[float(x) for x in row] for row in rows]
        summary.update({
            "rows": len(rows),
            "phases": config["phases"],
            "exact_dev_max": max(abs(row[1] - 1.0) for row in numeric),
            "sampled_abs_max": max(abs(row[2]) for row in numeric),
            "sample": numeric[::PARITY_STRIDE],
            "fit": json.loads((out / "parity_fit.json").read_text()),
        })
    elif sub == "histogram":
        _, rows = _read_csv(out / "histogram.csv")
        summary.update({
            "frequency": [int(row[1]) for row in rows],
            "shots": config.get("shots", 1000),
        })
    return summary


def summarise(op: Op, result, out_dir: Path) -> dict:
    if op.workload == "rap_carrier":
        return _rap_summary(result)
    if op.workload == "sweep_compensated":
        return _sweep_summary(result)
    code, stderr = result
    return _cli_summary(op, code, stderr, out_dir)
