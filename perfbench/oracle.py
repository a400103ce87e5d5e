"""Output oracle: invariants for every op, pinned references for the default seed.

``check(op, summary, reference)`` returns a list of problems; an op with any
problem counts as failed.  The reference (``reference.json``) holds the
summaries the default seed produced when the benchmark was defined; numbers
must stay within ``ABS_TOL`` of it, the diabatic bound within ``BOUND_REL_TOL``
relative.  Regenerate it with ``make_reference.py`` only when a change is
meant to move physics output, and say so.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1

ABS_TOL = 1e-6
BOUND_REL_TOL = 1e-6
POPULATION_SUM_TOL = 1e-9
NORM_DRIFT_MAX = 1e-9
DECOMPOSITION_TOL = 1e-9     # F = diag_sum/2 + offdiag/2
FIDELITY_SLACK = 1e-12       # rounding room on 0 <= F <= 1
PARITY_TOL = 1e-9


def load_references(workload: str, seed: int) -> list:
    """Reference summaries by op index, or ``[]`` for seeds without one."""
    if seed != REFERENCE_SEED:
        return []
    return json.loads(REFERENCE_PATH.read_text())["ops"][workload]


def compare(out, ref, path: str = "", rel: bool = False) -> list:
    """Differences between a summary and its reference, one string each."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, value in ref.items():
            if key not in out:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(out[key], value, f"{path}.{key}", rel or key == "bound")
        return problems
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: length {len(out) if isinstance(out, list) else '-'} != {len(ref)}"]
        problems = []
        for k, (o, r) in enumerate(zip(out, ref)):
            problems += compare(o, r, f"{path}[{k}]", rel)
        return problems
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if out == ref else [f"{path}: {out!r} != {ref!r}"]
    if not isinstance(out, (int, float)) or isinstance(out, bool):
        return [f"{path}: {out!r} is not a number"]
    tol = BOUND_REL_TOL * abs(ref) if rel else ABS_TOL
    if not abs(out - ref) <= tol:
        return [f"{path}: {out!r} differs from reference {ref!r} by more than {tol:.1e}"]
    return []


def _fidelity_checks(s: dict) -> list:
    problems = []
    f = s["fidelity"]
    if not -FIDELITY_SLACK <= f <= 1.0 + FIDELITY_SLACK:
        problems.append(f"fidelity {f!r} outside [0, 1]")
    total = sum(s["populations"].values())
    if not abs(total - 1.0) <= POPULATION_SUM_TOL:
        problems.append(f"populations sum to {total!r}")
    if not s["norm_drift"] <= NORM_DRIFT_MAX:
        problems.append(f"norm drift {s['norm_drift']!r} > {NORM_DRIFT_MAX}")
    if "diag_sum" in s:
        problems += _decomposition(f, s["diag_sum"], s["offdiag"], "")
    if s["bound"] is not None and not s["bound"] >= 0.0:
        problems.append(f"diabatic bound {s['bound']!r} is negative")
    return problems


def _decomposition(f, diag, off, where) -> list:
    if not abs(f - (diag / 2.0 + off / 2.0)) <= DECOMPOSITION_TOL:
        return [f"{where}F={f!r} != diag_sum/2 + offdiag/2 = {diag / 2 + off / 2!r}"]
    return []


def _sweep_checks(s: dict) -> list:
    problems = []
    if s["failed_points"]:
        problems.append(f"{s['failed_points']} sweep points failed")
    for k, (f, d, o) in enumerate(zip(s["fidelity"], s["diag_sum"], s["offdiag"])):
        if not -FIDELITY_SLACK <= f <= 1.0 + FIDELITY_SLACK:
            problems.append(f"point {k}: fidelity {f!r} outside [0, 1]")
        else:
            problems += _decomposition(f, d, o, f"point {k}: ")
    return problems


def _cli_checks(kind: str, s: dict) -> list:
    if s["exit"] != 0:
        return [f"exit code {s['exit']} (expected 0): {' '.join(s.get('stderr_tail', []))}"]
    problems = [] if s["manifest_ok"] else ["manifest checksums do not match the files"]
    if kind.startswith("simulate"):
        problems += _fidelity_checks(s)
    elif kind.startswith("potentials"):
        if s["rows"] % 2 or s["variants"] != ["none", "zero_carrier"]:
            problems.append(f"potentials.csv has {s['rows']} rows, variants {s['variants']}")
        if not s["finite"] or not s["alpha_min"] >= 0.0:
            problems.append("potentials.csv holds non-finite or negative values")
    elif kind.startswith("parity"):
        if s["rows"] != s["phases"]:
            problems.append(f"parity.csv has {s['rows']} rows for {s['phases']} phases")
        if not s["exact_dev_max"] <= PARITY_TOL:
            problems.append(f"ideal-state parity deviates from 1 by {s['exact_dev_max']!r}")
        if not s["sampled_abs_max"] <= 1.0:
            problems.append("sampled parity outside [-1, 1]")
    elif kind.startswith("histogram"):
        if sum(s["frequency"]) != s["shots"]:
            problems.append(f"histogram counts {sum(s['frequency'])} shots, not {s['shots']}")
    return problems


def check(op, summary: dict, reference: dict | None = None) -> list:
    """Every problem with one op's output; empty means the op passed."""
    if op.workload == "rap_carrier":
        problems = _fidelity_checks(summary)
    elif op.workload == "sweep_compensated":
        problems = _sweep_checks(summary)
    else:
        problems = _cli_checks(op.kind, summary)
    if reference is not None:
        problems += compare(summary, reference)
    return [f"op {op.index} ({op.kind}): {p}" for p in problems]
