"""Config parsing, subcommand outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from dickesim import ConfigError, measurement, propagator
from dickesim.cli import main, parse_config, resolved_snapshot, verify_manifest
from dickesim.drive import TWO_PI

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


class TestParseConfig:
    def test_minimal_resolves_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.duration_factor == 2.36
        assert cfg.omega_v == pytest.approx(TWO_PI * 0.7e6)
        assert cfg.omega_peak == pytest.approx(TWO_PI * 145e3)
        assert cfg.sigma == pytest.approx(122e-6)
        assert cfg.chirp_start == pytest.approx(-TWO_PI * 100e3)
        assert cfg.resolved_eta() == pytest.approx(0.082, abs=5e-4)

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


class TestPotentialsCommand:
    def test_columns_and_variants(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "potentials"]) == 0
        capsys.readouterr()
        lines = (out / "potentials.csv").read_text().strip().splitlines()
        assert lines[0] == ("t_s,eps_0,eps_1,eps_2,eps_3,eps_4,"
                            "alpha_over_omega_sq,variant")
        variants = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert variants == {"none", "zero_carrier"}
        assert len(lines) == 1 + 2 * 2001


class TestSweepCommand:
    def test_row_count_matches_points(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "sweep", "--axis", "width", "--points", "3"]) == 0
        capsys.readouterr()
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "axis_value,fidelity,diag_sum,offdiag,diabatic_bound"
        assert len(lines) == 1 + 3


class TestManifest:
    def test_checksums_verify(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "parity", "--ideal"]) == 0
        manifest_text = capsys.readouterr().out
        body = json.loads(manifest_text)
        assert body["tool"] == "dickesim"
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

    def test_numerical_guard_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dt_ns": 1e6})   # far beyond the guard
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "simulate"]) == 3
        assert "numerical guard" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [["parity"], ["parity", "--ideal"], ["potentials"],
                                      ["sweep", "--axis", "width", "--points", "3"]])
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
        # in an AttributeError (3 ions) or a misleading trace error (2 ions)
        cfg = write_config(tmp_path, {"n_qubits": n_qubits, "n_max": 1, "nbar": 0.5})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "nbar" in captured.err and "n_max" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

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

    def test_stdout_clean_on_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"omega_peak_khz": -1})
        main(["--config", str(cfg), "simulate"])
        assert capsys.readouterr().out == ""
