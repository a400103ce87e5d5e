"""dickesim benchmark: one workload per run, one client, one op in flight.

    python3 perfbench/run.py --workload rap_carrier --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
every op twice, plain and traced (alternating which goes first), and reports
the per-layer metrics plus the tracing overhead.  The metric names and units
are the ones declared in ``BENCHMARK.json``.  Every op's output is checked by
``oracle.py``.  The last stdout line is the result object; per-run details
(environment, op times, tail percentile, failures, spans) go to
``.perfbench_work/`` in the checkout.  dickesim runs from ``src`` (the
package need not be installed).
"""

import os
import sys

# Pinned before numpy is first imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
TAIL_BEYOND = 10        # samples that must lie beyond the reported tail percentile

sys.path.insert(0, str(BENCH_DIR))
import ops  # noqa: E402
import oracle  # noqa: E402


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    body = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in body[key]}
            for key in ("end_to_end", "per_layer")}


def child_env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_one(op, run_dir: Path, refs: list, subprocess_env=None, tracer=None):
    """Prepare, time, summarise and check one op: (seconds, problems, bytes written)."""
    out_dir = run_dir / f"op{op.index}{'-traced' if tracer else ''}"
    prepared = ops.prepare(op, out_dir)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = ops.execute(op, prepared, out_dir, subprocess_env)
            elapsed = time.perf_counter() - start
        else:
            tracer.op_id = op.index
            with tracer.installed():
                start = time.perf_counter()
                result = ops.execute(op, prepared, out_dir, subprocess_env)
                elapsed = time.perf_counter() - start
        summary = ops.summarise(op, result, out_dir)
        problems = oracle.check(op, summary, refs[op.index] if op.index < len(refs) else None)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        elapsed = time.perf_counter() - start
        problems = [f"op {op.index} ({op.kind}): raised {type(exc).__name__}: {exc}"]
    written = ops.bytes_written(out_dir) if op.workload == "cli_analysis" else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, problems, written


def _ops_for(workload: str, seed: int, seconds: float):
    """Ops in index order for ``seconds`` rounded to whole mix cycles (at least one).

    A new cycle starts only while at least half a cycle's time is left, so
    medians always see the full mix and a run overshoots by half a cycle at most.
    """
    cycle = ops.CYCLE[workload]
    start = time.perf_counter()
    index = 0
    while True:
        yield ops.make_op(workload, seed, index)
        index += 1
        if index % cycle == 0:
            now = time.perf_counter()
            if now + 0.5 * (now - start) / (index // cycle) > start + seconds:
                return


def setup_seconds(workload: str, seed: int, env: dict) -> list:
    """Fresh-process set-up: interpreter start, import, the first inputs."""
    if workload == "cli_analysis":
        argv = [sys.executable, "-m", "dickesim.cli", "--help"]
    else:
        params = json.dumps(ops.make_op(workload, seed, 0).params)
        argv = [sys.executable, str(BENCH_DIR / "probe.py"), params]
    times = []
    for _ in range(SETUP_PROBES):
        # Captured pipes end the wait at the child's exit; without them a wait
        # with a timeout polls in steps of up to 50 ms, which quantizes the time.
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True,
                       timeout=ops.CLI_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def known_defect_probe(run_dir: Path, seed: int, env: dict) -> dict:
    """3-ion ``histogram``, kept out of the timed mix because it fails today.

    The result is recorded with every cli_analysis run so the defect stays
    visible; it counts toward neither ``attempted`` nor ``failed``.
    """
    three_ion = ops.CLI_MIX.index(("simulate", 3))   # reuse that op's 3-ion config
    config = ops.make_op("cli_analysis", seed, three_ion).params["config"]
    op = ops.Op("cli_analysis", -1, "histogram_3ion", {"config": config, "argv": ["histogram"]}, 1)
    out_dir = run_dir / "known-defect"
    code, stderr = ops.execute(op, ops.prepare(op, out_dir), out_dir, env)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"op": "histogram, 3 ions", "exit": code,
            "stderr_tail": stderr.strip().splitlines()[-1:] if stderr.strip() else []}


def tail(times: list):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, or None."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return {"percentile": round(100.0 * (n - TAIL_BEYOND) / n, 1),
            "value_s": sorted(times)[n - TAIL_BEYOND - 1], "n": n}


def end_to_end(workload: str, seed: int, seconds: float, run_dir: Path, refs: list) -> dict:
    env = child_env()
    setup = setup_seconds(workload, seed, env)
    details = {"setup_samples_s": setup}
    subprocess_env = None
    if workload == "cli_analysis":
        details["known_defect"] = known_defect_probe(run_dir, seed, env)
        subprocess_env = env
    times, units, failed, problems = [], 0, 0, []
    for op in _ops_for(workload, seed, seconds):
        elapsed, op_problems, _ = run_one(op, run_dir, refs, subprocess_env)
        times.append(elapsed)
        failed += bool(op_problems)
        units += 0 if op_problems else op.units
        problems += op_problems
    who = resource.RUSAGE_CHILDREN if subprocess_env else resource.RUSAGE_SELF
    values = {
        "throughput_per_s": units / sum(times),
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    details.update(op_samples_s=times, op_s_tail=tail(times))
    return {"values": values, "attempted": len(times), "failed": failed,
            "problems": problems, "details": details}


def traced(workload: str, seed: int, seconds: float, run_dir: Path, refs: list) -> dict:
    import dickesim.drive as drive
    from tracer import Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    attempted = failed = n_ops = 0
    problems = []
    for op in _ops_for(workload, seed, seconds):
        for with_trace in ((False, True) if op.index % 2 == 0 else (True, False)):
            if hasattr(drive.drive_terms, "cache_clear"):
                drive.drive_terms.cache_clear()   # both halves start from the same cache
            elapsed, op_problems, written = run_one(
                op, run_dir, refs, tracer=tracer if with_trace else None)
            if with_trace:
                traced_s += elapsed
                tracer.counts["cli.bytes_written"] += written
            else:
                plain_s += elapsed
            attempted += 1
            failed += bool(op_problems)
            problems += op_problems
        n_ops += 1
    values = tracer.layer_metrics(n_ops)
    values["trace.overhead_ratio"] = traced_s / plain_s
    values["trace.op_s"] = traced_s / n_ops
    spans_path = run_dir.with_name(run_dir.name + "-spans.jsonl")
    tracer.dump(spans_path)
    return {"values": values, "attempted": attempted, "failed": failed, "problems": problems,
            "details": {"traced_ops": n_ops, "spans": str(spans_path.relative_to(ROOT))}}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "dickesim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=oracle.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dickesim" / "__init__.py").is_file():
        print(f"benchmark: dickesim sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    refs = oracle.load_references(args.workload, args.seed)
    measure = traced if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds, run_dir, refs)
    shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {name: {"value": result["values"][name], "unit": unit}
               for name, unit in declared.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "metrics": metrics,
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_ratio": result["failed"] / result["attempted"],
        "reference_checked": bool(refs), "problems": result["problems"][:50],
        **result["details"],
    }
    record_path = run_dir.with_suffix(".json")
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} ops attempted={record['attempted']} failed={record['failed']} "
          f"failed_ratio={record['failed_ratio']:.3g}; details in "
          f"{record_path.relative_to(ROOT)}")
    for problem in result["problems"][:10]:
        print(f"{args.workload} FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
