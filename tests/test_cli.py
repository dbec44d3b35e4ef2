"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import DeviceSpec
from repro.io import save_spec


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(
        DeviceSpec(
            name="cli-test",
            n_x=10,
            n_y=2,
            n_z=2,
            source_cells=3,
            drain_cells=3,
            gate_cells=(4, 6),
            donor_density_nm3=0.05,
            material_params={"m_rel": 0.3},
        ),
        path,
    )
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "spec.json"])
        assert args.vg == 0.0
        assert args.method == "wf"

    def test_bad_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "s.json", "--method", "dft"])

    def test_zero_copy_is_not_an_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "s.json", "--zero-copy"])

    @pytest.mark.parametrize("command", ["simulate", "sweep", "doctor"])
    def test_thread_is_not_a_backend(self, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [command, "s.json", "--backend", "thread"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "sweep", "doctor"])
    def test_precision_is_not_an_option(self, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [command, "s.json", "--method", "rgf", "--precision", "mixed"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "sweep", "doctor"])
    def test_cache_sigma_is_not_an_option(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "s.json", "--cache-sigma"])

    def test_stacking_is_not_an_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "s.json", "--batch-energies"])

    def test_scaling_cores_list(self):
        args = build_parser().parse_args(["scaling", "--cores", "8", "64"])
        assert args.cores == [8, 64]


class TestBandsCommand:
    def test_zincblende(self, capsys):
        assert main(["bands", "Si-sp3s*"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "indirect (X)"
        assert 1.0 < out["gap_ev"] < 1.3

    def test_single_band(self, capsys):
        assert main(["bands", "single-band"]) == 0
        assert "single-band" in capsys.readouterr().out

    def test_unknown_material(self):
        with pytest.raises(KeyError):
            main(["bands", "unobtainium"])


class TestScalingCommand:
    def test_output_table(self, capsys):
        assert main(["scaling", "--cores", "1024", "221130"]) == 0
        out = capsys.readouterr().out
        assert "221130" in out
        assert "PFlop/s" in out

    def test_rgf_algorithm(self, capsys):
        assert main(["scaling", "--cores", "1024", "--algorithm", "rgf"]) == 0
        assert "RGF" in capsys.readouterr().out


class TestSimulateCommand:
    def test_simulate_writes_json(self, spec_file, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        code = main([
            "simulate", spec_file, "--vg", "0.0", "--vd", "0.05",
            "--n-energy", "41", "-o", str(out_path),
        ])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["converged"] is True
        assert data["current_a"] > 0
        assert len(data["density_per_atom"]) == 40
        stdout = capsys.readouterr().out
        assert "current" in stdout

    def test_simulate_rgf(self, spec_file, capsys):
        code = main([
            "simulate", spec_file, "--method", "rgf", "--n-energy", "21",
        ])
        assert code in (0, 2)
        assert "current" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep(self, spec_file, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        events_path = tmp_path / "events.jsonl"
        code = main([
            "sweep", spec_file,
            "--vg-start", "-0.3", "--vg-stop", "0.0", "--vg-points", "3",
            "--vd", "0.05", "--n-energy", "41", "-o", str(out_path),
            "--events", str(events_path),
        ])
        assert code == 0
        # the resolved sub-stack length is part of the run's artefacts:
        # the measured stage peak of 10 slabs x (4 orbitals)^2 x 16 B
        # slab-sets per energy against the 14 MiB budget
        from repro.core.transport import STAGE_SLAB_SETS

        started = json.loads(events_path.read_text().splitlines()[0])
        assert started["event"] == "run_started"
        assert started["stack_length"] == int(
            (14 << 20) // (STAGE_SLAB_SETS * 10 * 4 * 4 * 16)
        )
        # ... and so is what the five REPRO_* variables resolved to
        from repro import env

        assert started["env"] == env.resolved()
        assert list(started["env"]) == [
            "REPRO_BACKEND", "REPRO_WORKERS", "REPRO_DEADLINE_S",
            "REPRO_ADAPTIVE", "REPRO_EVENTS",
        ]
        assert "precision" not in started
        data = json.loads(out_path.read_text())
        assert len(data["points"]) == 3
        currents = [p["current_a"] for p in data["points"]]
        assert currents[0] < currents[-1]
        assert "on/off" in capsys.readouterr().out
