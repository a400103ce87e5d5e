"""Tests of the benchmark itself (not of dickesim).

    python3 -m pytest perfbench -q

The short-run tests start the real benchmark for every workload and trace
mode, which takes about two minutes.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ops
import oracle
import run
from tracer import Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_declared_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(ops.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCHMARK["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_metric_name_and_unit_is_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(UNIT.match(u) for u in units)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_seed_changes_inputs_but_not_the_op_mix(workload):
    for index in range(12):
        a = ops.make_op(workload, 1, index)
        b = ops.make_op(workload, 2, index)
        assert (a.kind, a.units) == (b.kind, b.units)
        assert a.params != b.params
        assert a.params == ops.make_op(workload, 1, index).params


def test_no_two_ops_share_a_configuration():
    for workload in ops.WORKLOADS:
        params = [json.dumps(ops.make_op(workload, 1, i).params, sort_keys=True)
                  for i in range(50)]
        assert len(set(params)) == len(params)


def _reference(workload, kind_prefix):
    refs = oracle.load_references(workload, oracle.REFERENCE_SEED)
    index = next(i for i, r in enumerate(refs)
                 if ops.make_op(workload, oracle.REFERENCE_SEED, i).kind.startswith(kind_prefix))
    return ops.make_op(workload, oracle.REFERENCE_SEED, index), refs[index]


@pytest.mark.parametrize("workload,kind", [("rap_carrier", "rap"),
                                           ("sweep_compensated", "sweep"),
                                           ("cli_analysis", "simulate"),
                                           ("cli_analysis", "potentials"),
                                           ("cli_analysis", "parity"),
                                           ("cli_analysis", "histogram")])
def test_references_pass_their_own_checks(workload, kind):
    op, ref = _reference(workload, kind)
    assert oracle.check(op, ref, ref) == []


@pytest.mark.parametrize("workload,kind", [("rap_carrier", "rap"),
                                           ("cli_analysis", "simulate")])
def test_oracle_fails_a_fidelity_moved_by_1e_5(workload, kind):
    op, ref = _reference(workload, kind)
    moved = copy.deepcopy(ref)
    moved["fidelity"] += 1e-5
    assert oracle.check(op, moved, ref)
    within = copy.deepcopy(ref)         # inside the 1e-6 pin, F = diag/2 + off/2 kept
    within["fidelity"] += 1e-8
    within["diag_sum"] += 2e-8
    assert oracle.check(op, within, ref) == []


def test_oracle_fails_a_moved_sweep_point_and_a_relative_bound_change():
    op, ref = _reference("sweep_compensated", "sweep")
    moved = copy.deepcopy(ref)
    moved["offdiag"][7] += 1e-5
    assert oracle.check(op, moved, ref)
    op, ref = _reference("rap_carrier", "rap")
    moved = copy.deepcopy(ref)
    moved["bound"] *= 1.0 + 1e-5
    assert any(".bound" in p for p in oracle.check(op, moved, ref))


def test_oracle_fails_a_nonzero_exit():
    op, ref = _reference("cli_analysis", "histogram")
    failed = {"exit": 1, "stderr_tail": ["AttributeError: ..."]}
    assert oracle.check(op, failed) and oracle.check(op, failed, ref)


def test_oracle_fails_a_broken_manifest_and_a_lost_shot():
    op, ref = _reference("cli_analysis", "histogram")
    broken = dict(ref, manifest_ok=False)
    assert oracle.check(op, broken)
    lost = dict(ref, frequency=[*ref["frequency"][:-1], ref["frequency"][-1] - 1])
    assert oracle.check(op, lost)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    times = [float(k) for k in range(40)]
    t = run.tail(times)
    assert t["n"] == 40 and t["percentile"] == 75.0
    assert sum(x > t["value_s"] for x in times) == 10


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [[0, 0, "experiment.run_rap", None, 0.0, 10.0],
                    [1, 0, "propagator.evolve", 0, 1.0, 8.0],
                    [2, 0, "drive.drive_terms", 1, 1.0, 2.0],
                    [3, 0, "spectral.spectrum", 0, 8.0, 9.5]]
    self_s, calls = tracer.self_times()
    assert self_s["experiment.run_rap"] == pytest.approx(1.5)
    assert self_s["propagator.evolve"] == pytest.approx(6.0)
    assert self_s["drive.drive_terms"] == pytest.approx(1.0)
    assert calls["spectral.spectrum"] == 1


def test_wrappers_are_removed_after_a_traced_call():
    sys.path.insert(0, str(run.SRC))
    import dickesim.experiment as experiment

    original = experiment.evolve
    with Tracer().installed():
        assert experiment.evolve is not original
    assert experiment.evolve is original


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_short_run_emits_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "rap_carrier", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not Path(tmp_path, ".perfbench_work").exists()
