"""Config parsing, subcommand outputs, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import re
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import (ConfigError, ExperimentConfig, cli, make_dicke, measurement,
                      propagator, run_rap, sweep, trace_out_motion)
from dickesim.cli import main, parse_config, resolved_snapshot
from dickesim.drive import TWO_PI, CompensationMode
from oracles import parity, rotate_global

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = {
    "n_qubits": 2,
    "n_max": 5,
    "omega_peak_khz": 145,
    "sigma_us": 122,
    "chirp_khz": 100,
    "compensation": "zero_carrier",
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = dict(MINIMAL)
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def verify_manifest(path) -> bool:
    """Re-hash the files a manifest references and compare checksums."""
    body = json.loads(path.read_text())
    return all(hashlib.sha256((path.parent / name).read_bytes()).hexdigest() == digest
               for name, digest in body["outputs"].items())


class TestParseConfig:
    def test_minimal_resolves_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.duration_factor == 2.36
        assert cfg.omega_v == pytest.approx(TWO_PI * 0.7e6)
        assert cfg.omega_peak == pytest.approx(TWO_PI * 145e3)
        assert cfg.sigma == pytest.approx(122e-6)
        assert cfg.chirp_start == pytest.approx(-TWO_PI * 100e3)
        assert cfg.resolved_eta() == pytest.approx(0.082, abs=5e-4)

    def test_missing_keys_take_the_library_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        default = ExperimentConfig()
        from_required = {"n_qubits", "n_max", "omega_peak", "sigma", "chirp_start",
                         "chirp_end", "compensation"}
        for field in fields(ExperimentConfig):
            if field.name not in from_required:
                assert getattr(cfg, field.name) == getattr(default, field.name), field.name
        effective = parse_config(write_config(tmp_path, {"compensation": "effective"}))
        assert effective.compensation == CompensationMode.effective()

    def test_negative_frequency_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, {"omega_peak_khz": -5}))

    def test_unit_suffix_required(self, tmp_path):
        raw = dict(MINIMAL)
        del raw["omega_peak_khz"]
        raw["omega_peak"] = 145
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "omega_peak" in str(err.value)
        assert "omega_peak_khz" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, {"pulse_area": 3.14}))
        assert "pulse_area" in str(err.value)

    def test_missing_required_key(self, tmp_path):
        raw = dict(MINIMAL)
        del raw["sigma_us"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_compensation_name(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, {"compensation": "perfect"}))

    def test_effective_compensation_parsed(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {
            "compensation": "effective", "power_ratio": 0.6,
            "comp_detuning_khz": 400}))
        assert cfg.compensation.power_ratio == 0.6
        assert cfg.compensation.comp_detuning == pytest.approx(TWO_PI * 400e3)

    @pytest.mark.parametrize("overrides,key", [
        ({"shots": True}, "shots"),
        ({"phases": True}, "phases"),
        ({"seed": False}, "seed"),
        ({"n_qubits": True}, "n_qubits"),
        ({"n_max": False}, "n_max"),
        ({"sigma_us": True}, "sigma_us"),
        ({"omega_peak_khz": True}, "omega_peak_khz"),
        ({"nbar": False}, "nbar"),
        ({"eta": True}, "eta"),
        ({"dt_ns": True}, "dt_ns"),
        ({"beam_angle_rad": False}, "beam_angle_rad"),
        ({"ion_weights": [1.0, True]}, "ion_weights"),
        ({"prep_offsets_khz": [False, 0.0]}, "prep_offsets_khz"),
        ({"compensation": "effective", "power_ratio": True}, "power_ratio"),
    ])
    def test_json_booleans_rejected(self, tmp_path, capsys, overrides, key):
        # bool is an int subclass: true must not pass as 1 (one shot, 1 us, ...)
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {key}: ")
        assert not out.exists()

    def test_snapshot_materializes_everything(self, tmp_path):
        snap = resolved_snapshot(parse_config(write_config(tmp_path)))
        assert snap["omega_v_khz"] == pytest.approx(700.0)
        assert snap["prep"] == "ideal_fock"
        assert snap["ion_weights"] == [1.0, 1.0]
        assert snap["ion_offsets_khz"] == [0.0, 0.0]
        assert snap["prep_weights"] == [1.0, 0.0]
        assert snap["prep_offsets_khz"] == [0.0, 0.0]
        assert snap["eta"] == pytest.approx(0.0819, abs=1e-3)


class TestSimulateCommand:
    def test_operating_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "simulate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity"] >= 0.99
        assert payload["diabatic_bound"]["value"] < 0.05
        assert math.isclose(sum(payload["populations"].values()), 1.0, abs_tol=1e-9)
        on_disk = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert on_disk == payload

    @pytest.mark.parametrize("asymmetry", [{"ion_weights": [1.0, 0.9]},
                                           {"ion_offsets_khz": [0.0, 2.0]}])
    def test_asymmetric_ions(self, tmp_path, capsys, asymmetry):
        cfg = write_config(tmp_path, asymmetry)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "simulate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["diabatic_bound"]["value"])
        assert 0.0 <= payload["fidelity"] <= 1.0

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_long_pulse(self, tmp_path, capsys, n_qubits):
        # ~310k steps: rounding in the norm used to break the trace check
        cfg = write_config(tmp_path, {"n_qubits": n_qubits, "sigma_us": 600})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "simulate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["norm_drift"] < 1e-9
        assert math.isclose(sum(payload["populations"].values()), 1.0, abs_tol=1e-12)
        assert len(payload["populations"]) == 2**n_qubits
        # the two-ion fidelity decomposition is written for two ions only
        assert ("diag_sum" in payload) == ("offdiag" in payload) == (n_qubits == 2)

    def test_crossing_between_grid_points_gives_no_bound(self, tmp_path, capsys):
        # an effectively-off drive whose crossing falls between grid points:
        # the tracking follows the diabatic states and the pair's gap changes
        # sign, so the bound would report an adiabatic transfer that never ran
        cfg = write_config(tmp_path, {"omega_peak_khz": 1e-6,
                                      "ion_offsets_khz": [0.33, 0.33]})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "simulate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity"] < 1e-12
        assert payload["diabatic_bound"] is None

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        for sub in ("a", "b"):
            assert main(["--config", str(cfg), "--out", str(tmp_path / sub),
                         "simulate"]) == 0
        assert (tmp_path / "a" / "simulate.json").read_bytes() == \
            (tmp_path / "b" / "simulate.json").read_bytes()


class TestParityCommand:
    def test_ideal_state_constant_parity(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "parity", "--ideal"]) == 0
        capsys.readouterr()
        lines = (out / "parity.csv").read_text().strip().splitlines()
        assert lines[0] == "phi_rad,parity_exact,parity_sampled"
        assert len(lines) == 1 + 20
        for line in lines[1:]:
            _, exact, sampled = line.split(",")
            assert float(exact) == pytest.approx(1.0, abs=1e-12)
            assert -1.0 <= float(sampled) <= 1.0
        fit = json.loads((out / "parity_fit.json").read_text())
        assert fit["offset"] == pytest.approx(1.0, abs=1e-12)

    def test_sampled_column_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for sub in ("x", "y"):
            assert main(["--config", str(cfg), "--out", str(tmp_path / sub),
                         "parity", "--ideal"]) == 0
        capsys.readouterr()
        assert (tmp_path / "x" / "parity.csv").read_bytes() == \
            (tmp_path / "y" / "parity.csv").read_bytes()

    def test_sampled_column_equals_per_phase_oracle_draws(self, tmp_path, capsys):
        # one multinomial call on the (K, 4) populations draws what K calls
        # on the per-phase oracle's populations draw, in phase order
        cfg = write_config(tmp_path, {"phases": 300, "shots": 500, "seed": 2718})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "parity", "--ideal"]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in
                (out / "parity.csv").read_text().strip().splitlines()[1:]]
        rho = trace_out_motion(make_dicke(2, 1))
        rng = np.random.default_rng(2718)
        expected = []
        for phi in np.linspace(0.0, math.pi, 300, endpoint=False):
            rotated = rotate_global(rho, float(phi))
            pops = np.clip(rotated.populations(), 0.0, None)
            counts = rng.multinomial(500, pops / pops.sum())
            sampled = float((counts[0] + counts[3] - counts[1] - counts[2]) / 500)
            expected.append([f"{phi:.12g}", f"{parity(rotated):.12g}", f"{sampled:.12g}"])
        assert rows == expected


class TestHistogramCommand:
    def test_frequencies_sum_to_shots(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"shots": 2500})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "histogram"]) == 0
        capsys.readouterr()
        rows = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1)
        assert rows[:, 1].sum() == 2500

    def test_three_ions(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n_qubits": 3, "shots": 2500})
        for sub in ("a", "b"):
            assert main(["--config", str(cfg), "--out", str(tmp_path / sub),
                         "histogram"]) == 0
        capsys.readouterr()
        rows = np.loadtxt(tmp_path / "a" / "histogram.csv", delimiter=",", skiprows=1)
        assert rows[:, 1].sum() == 2500
        # up to 3 bright ions: counts reach well past the two-ion 140.5 mean
        assert rows[:, 0].max() > 180
        assert (tmp_path / "a" / "histogram.csv").read_bytes() == \
            (tmp_path / "b" / "histogram.csv").read_bytes()

    def test_three_ion_classes_equal_word_counts(self, tmp_path, capsys, monkeypatch):
        # oracle: the classes summed by counting the u's of each spin word,
        # in index order, as the command used to
        seen = []

        def capture(populations, shots, seed):
            seen.append(populations)
            return np.array([shots])

        monkeypatch.setattr(cli, "simulate_histogram", capture)
        cfg = write_config(tmp_path, {"n_qubits": 3, "compensation": "none"})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "histogram"]) == 0
        capsys.readouterr()
        expected = np.zeros(4)
        for word, p in run_rap(parse_config(cfg)).populations.items():
            expected[word.count("u")] += p
        assert np.array_equal(seen[0], expected)


class TestPotentialsCommand:
    # one ion has no |uu,0> state; from two ions on the reduced model has five
    @pytest.mark.parametrize("n_qubits,eps", [(2, "eps_0,eps_1,eps_2,eps_3,eps_4"),
                                              (1, "eps_0,eps_1,eps_2,eps_3"),
                                              (3, "eps_0,eps_1,eps_2,eps_3,eps_4")])
    def test_columns_and_variants(self, tmp_path, capsys, n_qubits, eps):
        cfg = write_config(tmp_path, {"n_qubits": n_qubits})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "potentials"]) == 0
        capsys.readouterr()
        lines = (out / "potentials.csv").read_text().strip().splitlines()
        assert lines[0] == f"t_s,{eps},alpha_over_omega_sq,variant"
        assert {len(line.split(",")) for line in lines} == {len(lines[0].split(","))}
        variants = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert variants == {"none", "zero_carrier"}
        assert len(lines) == 1 + 2 * 2001

    def test_unresolvable_crossing_names_the_finest_grid(self, tmp_path, capsys):
        # an effectively-off drive: the exact crossing sits on the centre point
        # of every nested grid, so refining cannot help
        cfg = write_config(tmp_path, {"omega_peak_khz": 0.000001})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "potentials"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("numerical guard: branch ")
        assert "16001 points" in captured.err
        assert "too sharp for this drive" in captured.err
        assert "refine the grid" not in captured.err


class TestSweepCommand:
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_row_count_matches_points(self, tmp_path, capsys, n_qubits):
        cfg = write_config(tmp_path, {"n_qubits": n_qubits})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "sweep", "--axis", "width", "--points", "3"]) == 0
        assert "partial sweep" not in capsys.readouterr().err
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "axis_value,fidelity,diag_sum,offdiag,diabatic_bound"
        assert len(lines) == 1 + 3
        for line in lines[1:]:
            _, fidelity, diag_sum, offdiag, bound = line.split(",")
            assert 0.0 <= float(fidelity) <= 1.0 and math.isfinite(float(bound))
            # the fidelity decomposition is written for two ions only
            assert (diag_sum == offdiag == "nan") == (n_qubits != 2)

    def test_one_point_runs_the_config_itself(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "sweep", "--axis", "width", "--points", "1"]) == 0
        _, row = (out / "sweep.csv").read_text().strip().splitlines()
        width, fidelity = map(float, row.split(",")[:2])
        assert width == pytest.approx(244e-6, rel=1e-11)
        assert fidelity == pytest.approx(run_rap(parse_config(cfg)).fidelity, abs=1e-11)


class TestManifest:
    def test_checksums_verify(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "parity", "--ideal"]) == 0
        manifest_text = capsys.readouterr().out
        body = json.loads(manifest_text)
        assert body["tool"] == "dickesim"
        # sorted keys, two-space indentation
        assert list(body) == ["command", "config", "created_utc", "outputs", "seed",
                              "tool", "version"]
        assert manifest_text.startswith('{\n  "command": "parity",\n  "config": {\n    "')
        assert set(body["outputs"]) == {"parity.csv", "parity_fit.json"}
        assert verify_manifest(out / "manifest.json")

    def test_tamper_detected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["--config", str(cfg), "--out", str(out), "parity", "--ideal"])
        capsys.readouterr()
        path = out / "parity.csv"
        path.write_text(path.read_text() + "tampered\n")
        assert not verify_manifest(out / "manifest.json")

    @pytest.mark.parametrize("prep", ["ideal_fock", "simulated_pulses"])
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_records_the_per_ion_lists_the_run_used(self, tmp_path, capsys, n_qubits,
                                                     prep):
        # left out of the file, the prep lists used to be written as []
        cfg = write_config(tmp_path, {"n_qubits": n_qubits, "prep": prep})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        capsys.readouterr()
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["prep"] == prep
        assert config["ion_weights"] == [1.0] * n_qubits
        assert config["ion_offsets_khz"] == [0.0] * n_qubits
        assert config["prep_weights"] == [1.0] + [0.0] * (n_qubits - 1)
        assert config["prep_offsets_khz"] == [0.0] * n_qubits

    def test_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "99",
                     "histogram"]) == 0
        capsys.readouterr()
        body = json.loads((out / "manifest.json").read_text())
        assert body["seed"] == 99


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"omega_peak_khz": -1})
        assert main(["--config", str(cfg), "simulate"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    @pytest.mark.parametrize("overrides,steps", [
        # a blue-sideband pi pulse of ~1.6 s at the 4.6 ns step
        ({"prep": "simulated_pulses", "omega_peak_khz": 0.0039, "dt_ns": 4.6}, 340393015),
        # a 4.72 s RAP pulse at the default step
        ({"compensation": "none", "sigma_us": 1e6}, 14334041),
    ], ids=["simulated_pulses", "long_pulse"])
    def test_unbounded_run_is_refused_at_once(self, tmp_path, capsys, overrides, steps):
        cfg = write_config(tmp_path, overrides)
        t0 = time.perf_counter()
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 3
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"numerical guard: {steps} steps of dt=")
        assert f"exceed the cap of {propagator.STEP_CAP}" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_sweep_records_a_refused_point(self, tmp_path):
        # a 4 s width takes ~10^7 default steps; the 244 us point runs
        res = sweep(parse_config(write_config(tmp_path)), "width", [244e-6, 4.0])
        assert res.partial and res.errors[0] is None
        assert res.errors[1].startswith("ResourceGuardError: ")
        assert np.isnan(res.fidelity[1]) and res.fidelity[0] > 0.99

    def test_numerical_guard_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dt_ns": 1e6})   # far beyond the guard
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "simulate"]) == 3
        assert "numerical guard" in capsys.readouterr().err

    @pytest.mark.parametrize("compensation,overrides,bound", [
        ("zero_carrier", {}, "a chirp endpoint"),
        # weak, nearly chirp-free and long: the trap margin sets the step
        ("none", {"omega_peak_khz": 2, "sigma_us": 100, "chirp_khz": 1},
         "the trap-period margin omega_v / 4"),
    ], ids=["zero_carrier", "none"])
    def test_step_refusal_names_its_bound(self, tmp_path, capsys, compensation, overrides,
                                          bound):
        cfg = write_config(tmp_path, {"dt_ns": 1e6, "compensation": compensation,
                                      **overrides})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "simulate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical guard: dt=")
        assert f"rad/s is {bound}\n" in err

    def test_non_unitary_step_is_3(self, tmp_path, capsys, monkeypatch):
        step_factors = propagator._FockSplit.step_factors

        def leaky(self, *args):
            return step_factors(self, *args) * (1.0 + 1e-6)

        monkeypatch.setattr(propagator._FockSplit, "step_factors", leaky)
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "simulate"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical guard: norm drifted")

    @pytest.mark.parametrize("argv", [["parity"], ["parity", "--ideal"]])
    def test_two_ion_commands_reject_three_ions(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, {"n_qubits": 3})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "n_qubits=3" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not any(out.iterdir())

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_thermal_needs_room_below_the_guard_level(self, tmp_path, capsys, n_qubits):
        # nbar > 0 at n_max = 1 keeps no thermal component: it used to end
        # in an AttributeError (3 ions) or a misleading trace error (2 ions);
        # the n_max rule now refuses it first (the library's thermal message
        # is tested in test_experiment.py)
        cfg = write_config(tmp_path, {"n_qubits": n_qubits, "n_max": 1, "nbar": 0.5})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "n_max: expected an integer >= 2, got 1" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("overrides,key", [
        ({"prep_weights": [1.0]}, "prep_weights has 1 entries for 2 ions"),
        ({"prep": "simulated_pulses", "prep_weights": [1.5, 0.0]},
         "prep_weights must lie in [0, 1]"),
        ({"prep_offsets_khz": [0.0, 0.0, 0.0]}, "prep_offsets_khz has 3 entries for 2 ions"),
    ])
    def test_prep_refusals_name_the_config_key(self, tmp_path, capsys, overrides, key):
        # these were reported as the drive's ion_weights/ion_detuning_offsets
        cfg = write_config(tmp_path, overrides)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: invalid configuration: ")
        assert key in captured.err

    @pytest.mark.parametrize("overrides,message", [
        ({"ion_offsets_khz": [0, 0, 0]}, "ion_offsets_khz has 3 entries for 2 ions"),
        ({"ion_weights": [1.0]}, "ion_weights has 1 entries for 2 ions"),
        ({"ion_weights": [1.0, 1.5]}, "ion_weights must lie in [0, 1]"),
        ({"compensation": "effective", "comp_detuning_khz": 0},
         "comp_detuning_khz must be nonzero"),
    ])
    def test_drive_refusals_name_the_config_key(self, tmp_path, capsys, overrides, message):
        # these were reported as the drive's ion_detuning_offsets, "ion weights"
        # and comp_detuning
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: invalid configuration: ")
        assert message in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "histogram"])
    def test_negative_seed_rejected_before_any_work(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "-1",
                     command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: --seed")
        assert not out.exists()

    def test_zero_points_rejected_before_any_work(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out),
                     "sweep", "--axis", "width", "--points", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: --points")
        assert not out.exists()

    def test_value_error_after_parsing_is_3(self, tmp_path, capsys, monkeypatch):
        # a reduced density matrix that fails its checks is a runtime fault,
        # not a configuration the user can fix
        monkeypatch.setattr(measurement, "TRACE_TOL", -1.0)
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "simulate"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("runtime error: density matrix")
        assert len(captured.err.strip().splitlines()) == 1

    def test_parity_closed_form_mismatch_is_3(self, tmp_path, capsys, monkeypatch):
        closed_form = measurement.parity_closed_form
        monkeypatch.setattr(measurement, "parity_closed_form",
                            lambda rho, phi: closed_form(rho, phi) + 1e-6)
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "parity", "--ideal"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical guard: parity mismatch at phi=")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("overrides", [
        {"compensation": "effective", "comp_detuning_khz": 0},
        {"compensation": "effective", "power_ratio": 1.5},
        {"compensation": "none", "power_ratio": "abc"},
        {"prep": "simulated_pulses", "prep_weights": [1.0]},
        {"prep": "simulated_pulses", "prep_weights": [1.5, 0.0]},
        {"prep_weights": [1.0]},
        {"omega_peak_khz": math.inf},
        {"compensation": "effective", "comp_detuning_khz": math.nan},
        {"n_max": 0},
        {"n_max": 1},
    ])
    def test_values_a_run_refuses_are_rejected_before_any_work(self, tmp_path, capsys,
                                                               overrides):
        # these used to fail with exit 3 once the run had started, or (a text
        # power_ratio under compensation none) to be replaced by the default;
        # JSON NaN and Infinity load as floats; n_max 0 cannot hold the
        # prepared quantum, and at n_max 1 it sits on the truncation guard level
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", [(["histogram"], "simulate_histogram"),
                                           (["parity", "--ideal"], "parity_curve")],
                             ids=["histogram", "parity"])
    def test_exhausted_memory_is_3(self, tmp_path, capsys, monkeypatch, argv, name):
        # an accepted config can ask for more than memory holds, e.g. 1e13
        # shots or phases; numpy then raises MemoryError
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(cli, name, exhausted)
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "out of memory: Unable to allocate 72.8 TiB for an array\n"
        assert not (out / "manifest.json").exists()

    def test_stdout_clean_on_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"omega_peak_khz": -1})
        main(["--config", str(cfg), "simulate"])
        assert capsys.readouterr().out == ""


def valid_values(n_qubits):
    """Every config key's strategy over short-running valid values for ``n_qubits`` ions."""
    def per_ion(lo, hi):
        return st.one_of(st.none(), st.lists(st.floats(lo, hi), min_size=n_qubits,
                                             max_size=n_qubits))
    return {
        "n_qubits": st.just(n_qubits),
        "n_max": st.integers(2, 4),
        "omega_peak_khz": st.floats(50, 300),
        "sigma_us": st.floats(5, 150),
        "chirp_khz": st.floats(20, 200),
        "compensation": st.sampled_from(["zero_carrier", "none", "effective"]),
        "duration_factor": st.floats(1.5, 3.0),
        "omega_v_khz": st.floats(500, 1500),
        "eta": st.one_of(st.none(), st.floats(0.02, 0.15)),
        "wavelength_nm": st.floats(300, 800),
        "mass_amu": st.floats(9, 138),
        "beam_angle_rad": st.floats(-1.0, 1.0),
        "ion_weights": per_ion(0.0, 1.0),
        "ion_offsets_khz": per_ion(-20.0, 20.0),
        "prep_weights": per_ion(0.0, 1.0),
        "prep_offsets_khz": per_ion(-100.0, 100.0),
        "phases": st.integers(3, 12),
        "shots": st.integers(1, 500),
        "seed": st.integers(0, 2**31),
        "nbar": st.sampled_from([0.0, 0.05, 0.2]),
        "dt_ns": st.one_of(st.none(), st.floats(50, 400)),
        "power_ratio": st.floats(0.1, 1.0),
        "comp_detuning_khz": st.floats(200, 600),
        "prep": st.sampled_from(["ideal_fock", "simulated_pulses"]),
    }


def invalid_values(key):
    """Values the config rules refuse for ``key``."""
    values = ["abc", True, math.nan]
    # "a number" takes any sign; seed and nbar take 0
    if key not in {"beam_angle_rad", "power_ratio", "comp_detuning_khz"}:
        values.append(-1)
        if key not in {"seed", "nbar"}:
            values.append(0)
    return values


#: every refused value of every key, and a key the schema does not have
INVALID_ENTRIES = [(key, value) for key in sorted(cli._KEYS)
                   for value in invalid_values(key)] + [("omega_peak", 145.0)]

COMMANDS = st.one_of(
    st.sampled_from([["simulate"], ["potentials"], ["parity"], ["parity", "--ideal"],
                     ["histogram"]]),
    st.builds(lambda axis, points: ["sweep", "--axis", axis, "--points", str(points)],
              st.sampled_from(["width", "peak"]), st.integers(1, 3)))


@st.composite
def cli_cases(draw):
    values = valid_values(draw(st.integers(1, 3)))
    required = {key: values.pop(key) for key in cli._REQUIRED_KEYS}
    raw = draw(st.fixed_dictionaries(required, optional=values))
    invalid = draw(st.sampled_from(INVALID_ENTRIES)) if draw(st.booleans()) else None
    if invalid is not None:
        raw[invalid[0]] = invalid[1]
    return raw, invalid, draw(COMMANDS)


class TestCliContract:
    """Every config the CLI accepts runs or exits with a clean, documented code."""

    def test_strategies_cover_every_key(self):
        assert set(valid_values(2)) == cli._KEYS

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=cli_cases())
    def test_exit_codes_and_manifest(self, case):
        raw, invalid, command = case
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "config.json"
            path.write_text(json.dumps(raw))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--config", str(path), "--out", str(Path(work) / "o"),
                             *command])
            assert code in (0, 2, 3), err.getvalue()
            if invalid is not None:
                assert code == 2, (invalid, err.getvalue())
            if code:
                assert out.getvalue() == ""
                assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
            else:
                assert verify_manifest(Path(work) / "o" / "manifest.json")


class TestReadme:
    @staticmethod
    def cli_section():
        text = README.read_text()
        start = text.index("\n## CLI\n")
        return text[start:text.index("\n## ", start + 1)]

    def test_minimal_config_parses(self, tmp_path):
        block = self.cli_section().split("Minimal config", 1)[1]
        block = block.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "minimal.json"
        path.write_text(block)
        assert set(json.loads(block)) == set(cli._REQUIRED_KEYS)
        parse_config(path)

    def test_key_table_names_the_schema_keys(self):
        named = re.findall(r"^\| `([a-z_]+)` \|", self.cli_section(), re.MULTILINE)
        assert len(named) == len(set(named))
        assert set(named) == cli._KEYS
