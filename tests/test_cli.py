from pathlib import Path

import numpy as np
import pytest

from rcflow.cli import main
from rcflow.engine import sample_noise
from rcflow.latent import Shape
from rcflow.stackio import read_stack, write_stack

from reference import parse_metrics

BASE_CONFIG = """\
seed = 7
frames = 2
channels = 1
height = 16
width = 16
steps = 50
reuse_interval = 10
hf_lambda = 0.5
hf_rho = 0.8
field = mixture
mask = scene
src.illum = 1.0, 0.0, 0.0, 0.2
src.agnostic = 5, 3, 0.5
tar.illum = 2.0, 0.3, 0.8, 0.6
tar.agnostic = 5, 3, 0.5
"""


def write_config(tmp_path, text=BASE_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run(command, config, out, *extra):
    return main([command, "--config", str(config), "--out", str(out), *extra])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestCommands:
    def test_generate_writes_outputs(self, tmp_path):
        config = write_config(tmp_path)
        assert run("generate", config, tmp_path / "g") == 0
        metrics = parse_metrics((tmp_path / "g" / "metrics.txt").read_text())
        assert metrics["nfe"] == 50
        assert (tmp_path / "g" / "output.fps").exists()
        assert (tmp_path / "g" / "frame_0000.pgm").exists()
        assert (tmp_path / "g" / "frame_0001.pgm").exists()

    def test_edit_reports_accounting(self, tmp_path):
        config = write_config(tmp_path)
        assert run("edit", config, tmp_path / "e") == 0
        metrics = parse_metrics((tmp_path / "e" / "metrics.txt").read_text())
        assert metrics["nfe"] == 55
        assert -1.0 <= metrics["fg_structure_score"] <= 1.0
        assert metrics["bg_change_rms"] >= 0.0
        assert "identity_error" not in metrics

    def test_edit_identity_run_reports_error(self, tmp_path):
        text = BASE_CONFIG.replace("tar.illum = 2.0, 0.3, 0.8, 0.6", "tar.illum = 1.0, 0.0, 0.0, 0.2")
        text = text.replace("reuse_interval = 10", "reuse_interval = 1")
        text = text.replace("mask = scene", "mask = ones")
        config = write_config(tmp_path, text)
        assert run("edit", config, tmp_path / "i") == 0
        metrics = parse_metrics((tmp_path / "i" / "metrics.txt").read_text())
        assert metrics["identity_error"] <= 1e-5

    @pytest.mark.parametrize("axis", ["height", "width"])
    def test_edit_single_row_or_column(self, tmp_path, axis):
        # a length-1 spatial axis has no neighbours; its gradient counts as zero
        config = write_config(tmp_path, BASE_CONFIG.replace(f"{axis} = 16", f"{axis} = 1"))
        assert run("edit", config, tmp_path / "thin") == 0
        metrics = parse_metrics((tmp_path / "thin" / "metrics.txt").read_text())
        assert np.isfinite(metrics["fg_structure_score"])

    def test_flowedit_fresh_nfe(self, tmp_path):
        text = BASE_CONFIG + "fe_noise = fresh\nfe_navg = 2\n"
        config = write_config(tmp_path, text)
        assert run("flowedit", config, tmp_path / "f") == 0
        metrics = parse_metrics((tmp_path / "f" / "metrics.txt").read_text())
        assert metrics["nfe"] == 200

    def test_equivalence_passes_and_writes_report(self, tmp_path):
        text = BASE_CONFIG.replace("steps = 50", "steps = 20")
        config = write_config(tmp_path, text)
        assert run("equivalence", config, tmp_path / "q") == 0
        report = (tmp_path / "q" / "equivalence.txt").read_text()
        assert "passed=true" in report
        assert report.count("step t=") == 21

    def test_equivalence_failure_exit_code(self, tmp_path):
        text = BASE_CONFIG.replace("steps = 50", "steps = 20") + "equiv_tol = 0\n"
        config = write_config(tmp_path, text)
        assert run("equivalence", config, tmp_path / "qf") == 4
        assert "passed=false" in (tmp_path / "qf" / "equivalence.txt").read_text()

    def test_sweep_reuse_table(self, tmp_path):
        config = write_config(tmp_path)
        assert run("sweep-reuse", config, tmp_path / "s") == 0
        lines = (tmp_path / "s" / "sweep.txt").read_text().splitlines()
        assert lines[0].split() == ["r", "nfe", "reuse_gap"]
        rows = [line.split() for line in lines[1:]]
        assert [int(row[0]) for row in rows] == [1, 2, 5, 10]
        assert [int(row[1]) for row in rows] == [100, 75, 60, 55]
        assert float(rows[0][2]) == 0.0

    def test_sweep_r_equals_steps(self, tmp_path):
        text = BASE_CONFIG.replace("steps = 50", "steps = 10") + "sweep_r = 1,10\n"
        text = text.replace("reuse_interval = 10", "reuse_interval = 1")
        config = write_config(tmp_path, text)
        assert run("sweep-reuse", config, tmp_path / "sn") == 0
        lines = (tmp_path / "sn" / "sweep.txt").read_text().splitlines()
        assert lines[-1].split()[:2] == ["10", "11"]


class TestDeterminism:
    @pytest.mark.parametrize("command", ["generate", "edit", "flowedit", "sweep-reuse"])
    def test_reruns_byte_identical(self, command, tmp_path):
        text = BASE_CONFIG.replace("steps = 50", "steps = 20")
        text = text.replace("reuse_interval = 10", "reuse_interval = 5")
        text = text.replace("sweep", "sweep")  # no-op; keep config shared
        config = write_config(tmp_path, text + "sweep_r = 1,2,5\n")
        assert run(command, config, tmp_path / "r1") == 0
        assert run(command, config, tmp_path / "r2") == 0
        assert tree_bytes(tmp_path / "r1") == tree_bytes(tmp_path / "r2")

    def test_mask_zeros_lambda_zero_edit_equals_generate(self, tmp_path):
        text = BASE_CONFIG.replace("mask = scene", "mask = zeros")
        text = text.replace("hf_lambda = 0.5", "hf_lambda = 0.0")
        config = write_config(tmp_path, text)
        assert run("edit", config, tmp_path / "ez") == 0
        assert run("generate", config, tmp_path / "gz") == 0
        edit_bytes = (tmp_path / "ez" / "output.fps").read_bytes()
        gen_bytes = (tmp_path / "gz" / "output.fps").read_bytes()
        assert edit_bytes == gen_bytes


class TestCliContract:
    def test_config_error_exit_code(self, tmp_path):
        config = write_config(tmp_path, "bogus_key = 1\n")
        assert run("generate", config, tmp_path / "x") == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert run("generate", tmp_path / "missing.cfg", tmp_path / "x") == 2

    def test_flag_overrides(self, tmp_path):
        config = write_config(tmp_path)
        assert run("edit", config, tmp_path / "o", "--r", "5", "--seed", "9") == 0
        metrics = parse_metrics((tmp_path / "o" / "metrics.txt").read_text())
        assert metrics["nfe"] == 60

    def test_bad_flag_value_is_config_error(self, tmp_path):
        config = write_config(tmp_path)
        assert run("edit", config, tmp_path / "b", "--lambda", "2.0") == 2
        assert run("edit", config, tmp_path / "b2", "--r", "0") == 2

    def test_identity_check_failure_exit_code(self, tmp_path, monkeypatch):
        # force an unreachable tolerance so the strict identity gate trips
        text = BASE_CONFIG.replace("tar.illum = 2.0, 0.3, 0.8, 0.6", "tar.illum = 1.0, 0.0, 0.0, 0.2")
        text = text.replace("reuse_interval = 10", "reuse_interval = 1")
        text = text.replace("mask = scene", "mask = ones")
        config = write_config(tmp_path, text + "identity_tol = 0\n")
        assert run("edit", config, tmp_path / "it") == 4

    def test_seed_changes_output(self, tmp_path):
        # constant field: output is eps + k, so the seed must show through
        text = BASE_CONFIG.replace("field = mixture", "field = constant")
        config = write_config(tmp_path, text + "constant_value = 0.25\n")
        assert run("generate", config, tmp_path / "s1", "--seed", "1") == 0
        assert run("generate", config, tmp_path / "s2", "--seed", "2") == 0
        a = read_stack(tmp_path / "s1" / "output.fps")
        b = read_stack(tmp_path / "s2" / "output.fps")
        assert not np.array_equal(a.data, b.data)

    def test_input_file_pipeline(self, tmp_path):
        z0 = sample_noise(21, Shape(2, 1, 16, 16))
        write_stack(tmp_path / "input.fps", z0)
        config = write_config(tmp_path, BASE_CONFIG + "input = input.fps\n")
        assert run("edit", config, tmp_path / "inp") == 0

    @pytest.mark.parametrize(
        "key,shape",
        [
            ("src.structural_file", Shape(1, 1, 4, 4)),
            ("tar.structural_file", Shape(2, 1, 16, 8)),
            ("src.reference_file", Shape(2, 1, 16, 16)),
            ("tar.reference_file", Shape(1, 1, 8, 8)),
        ],
    )
    def test_misshaped_condition_stack_is_config_error(self, tmp_path, capsys, key, shape):
        write_stack(tmp_path / "cond.fps", sample_noise(22, shape))
        config = write_config(tmp_path, BASE_CONFIG + f"{key} = cond.fps\n")
        assert run("edit", config, tmp_path / "cond") == 2
        assert f"key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad,reason", [("nan", "field contains non-finite values"), ("\xff", "'ascii' codec")])
    @pytest.mark.parametrize(
        "key,frames,lines",
        [
            ("input", 2, "input = bad.fps\n"),
            ("mask", 2, "mask = bad.fps\n"),
            ("component.0.file", 2, "component.0.weight = 1\ncomponent.0.file = bad.fps\n"),
            ("src.structural_file", 2, "src.structural_file = bad.fps\n"),
            ("tar.reference_file", 1, "tar.reference_file = bad.fps\n"),
        ],
    )
    def test_bad_stack_value_is_config_error(self, tmp_path, capsys, key, frames, lines, bad, reason):
        values = ["0.25"] * (frames * 16 * 16)
        values[37] = bad
        rows = [" ".join(values[i : i + 16]) for i in range(0, len(values), 16)]
        text = f"FPSTACK 1 {frames} 1 16 16\n" + "\n".join(rows) + "\n"
        (tmp_path / "bad.fps").write_bytes(text.encode("latin-1"))
        config = write_config(tmp_path, BASE_CONFIG.replace("mask = scene\n", "") + lines)
        assert run("edit", config, tmp_path / "bad") == 2
        assert capsys.readouterr().err.startswith(f"config error: key '{key}': {reason}")

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--seed", "abc", "key 'seed': expected an integer, got 'abc'"),
            ("--seed", "-1", "key 'seed': must fit in 64 bits"),
            ("--r", "0", "key 'reuse_interval': must be >= 1"),
            ("--r", "2.5", "key 'reuse_interval': expected an integer, got '2.5'"),
            ("--r", "51", "key 'reuse_interval': must not exceed the 50 schedule steps"),
            ("--lambda", "2.0", "key 'hf_lambda': must lie in [0, 1]"),
            ("--rho", "nan", "key 'hf_rho': value must be finite"),
        ],
    )
    def test_flag_error_is_its_key_error(self, tmp_path, capsys, flag, value, message):
        config = write_config(tmp_path)
        assert run("edit", config, tmp_path / "fe", flag, value) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "fe").exists()

    def test_flag_repairs_config_value(self, tmp_path):
        # the file's reuse_interval exceeds its steps; --r replaces it before any check
        text = BASE_CONFIG.replace("steps = 50", "steps = 20")
        text = text.replace("reuse_interval = 10", "reuse_interval = 25")
        config = write_config(tmp_path, text)
        assert run("edit", config, tmp_path / "bad") == 2
        assert run("edit", config, tmp_path / "rep", "--r", "5") == 0
        metrics = parse_metrics((tmp_path / "rep" / "metrics.txt").read_text())
        assert metrics["nfe"] == 24

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        from rcflow import cli
        from rcflow.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("synthetic blow-up")

        monkeypatch.setattr(cli, "run_edit", boom)
        config = write_config(tmp_path)
        assert run("edit", config, tmp_path / "n") == 3

    def test_generate_constant_field_closed_form(self, tmp_path):
        text = BASE_CONFIG.replace("field = mixture", "field = constant")
        config = write_config(tmp_path, text + "constant_value = 0.75\n")
        assert run("generate", config, tmp_path / "cf", "--seed", "4") == 0
        loaded = read_stack(tmp_path / "cf" / "output.fps")
        expected = sample_noise(4, Shape(2, 1, 16, 16)).data + 0.75
        assert np.max(np.abs(loaded.data - expected)) <= 1e-6 * (1 + np.max(np.abs(expected)))
