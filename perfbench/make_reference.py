"""Regenerate ``reference.json``: the default seed's op summaries at this commit.

    python3 perfbench/make_reference.py

Runs the first ``REFERENCE_OPS[w]`` ops of every workload in-process, checks
their invariants, and stores their summaries.  Only a change meant to move
physics output may regenerate the file, and it must say so.
"""

import json
import math
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported
import ops
import oracle

REFERENCE_OPS = {"rap_carrier": 40, "sweep_compensated": 8, "cli_analysis": 100}


def _finite(summary) -> bool:
    """True when a summary holds no NaN or infinity."""
    if isinstance(summary, dict):
        return all(_finite(v) for v in summary.values())
    if isinstance(summary, list):
        return all(_finite(v) for v in summary)
    return not isinstance(summary, float) or math.isfinite(summary)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "make-reference"
    body = {"seed": oracle.REFERENCE_SEED, "environment": run.environment(), "ops": {}}
    for workload, count in REFERENCE_OPS.items():
        summaries = []
        for index in range(count):
            op = ops.make_op(workload, oracle.REFERENCE_SEED, index)
            out_dir = work / f"{workload}-{index}"
            result = ops.execute(op, ops.prepare(op, out_dir), out_dir)
            summary = ops.summarise(op, result, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            problems = oracle.check(op, summary)
            if problems or not _finite(summary):
                print("\n".join(problems) or f"op {index}: non-finite output", file=sys.stderr)
                return 1
            summaries.append(summary)
            print(f"{workload} op {index} ({op.kind}) ok", file=sys.stderr)
        body["ops"][workload] = summaries
    oracle.REFERENCE_PATH.write_text(json.dumps(body, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
