import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcflow import config as cfgmod
from rcflow.cli import main
from rcflow.edit import EditConfig, run_edit
from rcflow.engine import sample_noise
from rcflow.latent import LatentField, Shape
from rcflow.metrics import bg_change_rms, fg_structure_score
from rcflow.stackio import read_stack, write_stack

from reference import direct_posterior_mean, parse_metrics

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


SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# runs `edit` in a fresh process; with "one", on one CPU set before rcflow.rng sizes its pool
ONE_CPU_SCRIPT = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import rcflow.rng
from rcflow.cli import main
print(rcflow.rng._WORKERS)
sys.exit(main(["edit", "--config", sys.argv[2], "--out", sys.argv[3]]))
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

    def test_metrics_key_sequence(self, tmp_path):
        # an identity edit (src = tar) writes every key metrics.txt can hold
        identity = BASE_CONFIG.replace("tar.illum = 2.0, 0.3, 0.8, 0.6", "tar.illum = 1.0, 0.0, 0.0, 0.2")
        config = write_config(tmp_path, identity)
        assert run("edit", config, tmp_path / "e") == 0
        assert run("generate", config, tmp_path / "g") == 0
        edit_lines = (tmp_path / "e" / "metrics.txt").read_text().splitlines()
        generate_lines = (tmp_path / "g" / "metrics.txt").read_text().splitlines()
        export = ["export_channel", "export_min", "export_max"]
        edit_keys = [line.partition("=")[0] for line in edit_lines]
        assert edit_keys == ["nfe", "identity_error", "fg_structure_score", "bg_change_rms", *export]
        assert [line.partition("=")[0] for line in generate_lines] == ["nfe", *export]
        # integers are written as they are
        assert [edit_lines[0], edit_lines[4]] == ["nfe=55", "export_channel=0"]
        assert generate_lines[:2] == ["nfe=50", "export_channel=0"]

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
        lines = (tmp_path / "q" / "equivalence.txt").read_text().splitlines()
        keys = [line.partition("=")[0] for line in lines[:5]]
        assert keys == ["tol", "passed", "max_deviation", "flowedit_nfe", "edit_nfe"]
        assert lines[1] == "passed=true"
        # one deviation per knot: N + 1 for N steps
        assert len(lines) == 5 + 21
        assert all(line.startswith("step t=") for line in lines[5:])

    def test_equivalence_failure_exit_code(self, tmp_path):
        text = BASE_CONFIG.replace("steps = 50", "steps = 20") + "equiv_tol = 0\n"
        config = write_config(tmp_path, text)
        assert run("equivalence", config, tmp_path / "qf") == 4
        assert "passed=false" in (tmp_path / "qf" / "equivalence.txt").read_text()

    def test_negative_zero_first_knot_reports_t_zero(self, tmp_path):
        text = BASE_CONFIG.replace("steps = 50", "knots = -0 0.5 1")
        text = text.replace("reuse_interval = 10", "reuse_interval = 1")
        assert run("equivalence", write_config(tmp_path, text), tmp_path / "q") == 0
        last = (tmp_path / "q" / "equivalence.txt").read_text().splitlines()[-1]
        assert last.startswith("step t=0 deviation=")

    def test_sweep_reuse_table(self, tmp_path):
        config = write_config(tmp_path)
        assert run("sweep-reuse", config, tmp_path / "s") == 0
        lines = (tmp_path / "s" / "sweep.txt").read_text().splitlines()
        assert lines[0].split() == ["r", "nfe", "reuse_gap"]
        rows = [line.split() for line in lines[1:]]
        assert [int(row[0]) for row in rows] == [1, 2, 5, 10]
        assert [int(row[1]) for row in rows] == [100, 75, 60, 55]
        assert float(rows[0][2]) == 0.0

    def test_sweep_reuse_holds_one_edit_besides_its_baseline(self, tmp_path):
        text = "frames = 4\nchannels = 2\nheight = 64\nwidth = 64\nsteps = 10\nhf_lambda = 0\n"

        def peak_bytes(sweep_r):
            config = write_config(tmp_path, text + f"sweep_r = {sweep_r}\n")
            tracemalloc.start()
            try:
                assert run("sweep-reuse", config, tmp_path / "s") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes("1")  # warm-up: one-time allocations of the first run
        output_bytes = 4 * 2 * 64 * 64 * 8
        assert peak_bytes("1, 2, 3, 4, 5, 6, 7, 8, 9, 10") - peak_bytes("1, 2") < output_bytes // 4

    def test_sweep_reuse_identity_column(self, tmp_path):
        # an identity run (src = tar) adds each row's identity error
        text = BASE_CONFIG.replace("tar.illum = 2.0, 0.3, 0.8, 0.6", "tar.illum = 1.0, 0.0, 0.0, 0.2")
        text = text.replace("steps = 50", "steps = 10").replace("mask = scene", "mask = ones")
        config = write_config(tmp_path, text + "sweep_r = 1, 2, 5\n")
        assert run("sweep-reuse", config, tmp_path / "s") == 0
        assert run("edit", config, tmp_path / "e", "--r", "1") == 0
        lines = (tmp_path / "s" / "sweep.txt").read_text().splitlines()
        assert lines[0].split() == ["r", "nfe", "reuse_gap", "identity_error"]
        rows = [line.split() for line in lines[1:]]
        assert [row[0] for row in rows] == ["1", "2", "5"]
        assert all(np.isfinite(float(row[3])) for row in rows)
        metrics = (tmp_path / "e" / "metrics.txt").read_text().splitlines()
        # the edit's own identity check (exit 0) holds r = 1 within identity_tol
        assert f"identity_error={rows[0][3]}" in metrics

    def test_unset_defaults_fit_a_short_schedule(self, tmp_path):
        # 5 steps are fewer than the default reuse interval 10 and the sweep's r = 10
        config = write_config(tmp_path, "steps = 5\n")
        assert run("generate", config, tmp_path / "g") == 0
        assert run("sweep-reuse", config, tmp_path / "s") == 0
        rows = (tmp_path / "s" / "sweep.txt").read_text().splitlines()[1:]
        assert [row.split()[:2] for row in rows] == [["1", "10"], ["2", "8"], ["5", "6"]]

    @pytest.mark.parametrize(
        "line,message",
        [
            ("reuse_interval = 10", "key 'reuse_interval': must not exceed the 5 schedule steps"),
            ("sweep_r = 1, 10", "key 'sweep_r': value 10 outside [1, 5]"),
        ],
    )
    def test_set_value_is_checked_against_a_short_schedule(self, tmp_path, capsys, line, message):
        config = write_config(tmp_path, f"steps = 5\n{line}\n")
        assert run("generate", config, tmp_path / "g") == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_huge_finite_values_give_finite_rms(self, tmp_path):
        text = "field = constant\nconstant_value = 1e200\nhf_lambda = 0\nsteps = 5\n"
        config = write_config(tmp_path, text)
        assert run("edit", config, tmp_path / "h") == 0
        metrics = parse_metrics((tmp_path / "h" / "metrics.txt").read_text())

        cfg = cfgmod.load_config(config)
        scene = cfgmod.build_scene(cfg)
        src, tar = cfgmod.build_bundles(cfg)
        mask = cfgmod.build_mask(cfg, scene, src)
        z0 = cfgmod.build_input(cfg, scene, src)
        eps = sample_noise(cfg.seed, cfgmod.build_shape(cfg))
        edit_cfg = EditConfig(cfgmod.build_schedule(cfg), mask, cfg.reuse_interval, 0.0)
        report = run_edit(cfgmod.build_field(cfg, scene), z0, src, tar, eps, edit_cfg)
        outside = np.broadcast_to(mask.data <= 0.5, z0.data.shape)
        scaled = (report.output.data - z0.data)[outside] / 1e200
        assert metrics["bg_change_rms"] == pytest.approx(1e200 * np.sqrt(np.mean(scaled * scaled)), rel=1e-8)
        assert all(np.isfinite(report.per_step_residual_norm))

    # pytest's filterwarnings = ["error"] fails each of these on any numpy warning

    def test_mixture_edit_at_extreme_scale_matches_direct_distances(self, tmp_path, monkeypatch):
        text = BASE_CONFIG.replace("src.illum = 1.0, 0.0, 0.0, 0.2", "src.illum = 1e300 1e300 3 1e300")
        config = write_config(tmp_path, text)
        assert run("edit", config, tmp_path / "fast") == 0
        monkeypatch.setattr(
            "rcflow.fields._posterior_mean_stable",
            lambda z, t, data: direct_posterior_mean(LatentField(z), t, data).data,
        )
        assert run("edit", config, tmp_path / "direct") == 0
        fast = (tmp_path / "fast" / "output.fps").read_bytes()
        assert fast == (tmp_path / "direct" / "output.fps").read_bytes()

    def test_structure_score_is_finite_at_extreme_scale(self, tmp_path):
        config = write_config(tmp_path, "height = 5\nsrc.illum = 1e300 1e300 3 1e300\n")
        assert run("edit", config, tmp_path / "e") == 0
        score = parse_metrics((tmp_path / "e" / "metrics.txt").read_text())["fg_structure_score"]
        assert -1.0 <= score <= 1.0

    def test_structure_score_is_finite_where_gradients_overflow(self, tmp_path):
        # the output spans -1e308 to 1e308, so its differences overflow unscaled
        config = write_config(tmp_path, "tar.illum = -1e308 0 0 1e308\nhf_lambda = 0\n")
        assert run("edit", config, tmp_path / "e") == 0
        score = parse_metrics((tmp_path / "e" / "metrics.txt").read_text())["fg_structure_score"]
        assert score == pytest.approx(0.773768558, abs=1e-9)

    def test_frames_span_a_range_that_overflows(self, tmp_path):
        text = "frames = 2\nsteps = 2\nfe_noise = fresh\nsrc.illum = 0 0 0 0\ntar.illum = -1e308 0 0 1e308\n"
        config = write_config(tmp_path, text)
        assert run("flowedit", config, tmp_path / "f") == 0
        for name in ("frame_0000.pgm", "frame_0001.pgm"):
            pixels = np.frombuffer((tmp_path / "f" / name).read_bytes()[-16 * 16 :], dtype=np.uint8)
            assert pixels.any()

    @pytest.mark.parametrize("command", ["generate", "edit", "flowedit"])
    def test_far_blobs_run_without_warnings(self, command, tmp_path):
        # motion 1e200 drifts every blob past frame 0 out of float range
        text = "frames = 3\nsteps = 5\nsrc.agnostic = 5 3 1e200\ntar.agnostic = 5 3 1e200\n"
        assert run(command, write_config(tmp_path, text), tmp_path / "o") == 0

    def test_blob_far_past_its_width_runs_without_warnings(self, tmp_path):
        # motion 1e154 keeps each squared blob distance finite; dividing by 2 sigma^2 overflows
        text = "tar.agnostic = 1 4 1e154\nheight = 2\nwidth = 2\nsteps = 2\n"
        assert run("generate", write_config(tmp_path, text), tmp_path / "o") == 0

    @pytest.mark.parametrize("command", ["generate", "edit"])
    def test_overflowing_mixture_component_names_its_stage(self, command, tmp_path, capsys):
        # the render is finite; render + spread * perturbation is not
        text = (
            "field = mixture\nmixture.spread = 1.7e308\nsrc.illum = 1 0 0 1.7e308\n"
            "tar.illum = 1 0 0 1.7e308\nsteps = 5\nhf_lambda = 0\n"
        )
        assert run(command, write_config(tmp_path, text), tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and "scene mixture component 1" in err and "spread" in err

    @pytest.mark.parametrize("command", ["edit", "sweep-reuse"])
    def test_subnormal_knot_is_a_numeric_error(self, command, tmp_path, capsys):
        # (target - z) / 5e-324 overflows
        assert run(command, write_config(tmp_path, "knots = 0 5e-324 1\n"), tmp_path / "o") == 3
        assert "velocity field failed at t=5e-324" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["edit", "flowedit", "equivalence", "sweep-reuse"])
    def test_overflowing_step_is_a_numeric_error(self, command, tmp_path, capsys):
        # the source and target renders are finite, their differences are not
        text = "src.illum = 1e308 0 0 -1e308\ntar.illum = -1e308 0 0 1e308\n"
        assert run(command, write_config(tmp_path, text), tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and "stepping to t=0.98" in err

    @pytest.mark.parametrize(
        "command,text,message",
        [
            # (z0 - eps) - v_src overflows in the residual
            ("edit", "field = constant\nconstant_value = -1e308\nsrc.illum = 0 0 0 1e308\nsteps = 5\nhf_lambda = 0\n",
             "residual became non-finite at t=1"),
            # v_tar + M * residual overflows in the edit step
            ("equivalence", "src.illum = -1e308 0 0 1e308\nknots = 0 5e-324 1\n",
             "edit latent became non-finite stepping to t=0"),
        ],
        ids=["residual", "edit-step"],
    )
    def test_overflowing_edit_velocity_names_its_stage(self, command, text, message, tmp_path, capsys):
        assert run(command, write_config(tmp_path, text), tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and message in err

    @pytest.mark.parametrize(
        "command,text",
        [
            # gain + tilt * ramp overflows in the source render
            ("edit", "src.illum = 1e308 1e308 1 1e308\nsteps = 5\n"),
            # the gain is finite; mask * (pattern * gain) + ... overflows
            ("generate", "tar.illum = 1e308 1e308 1 1e308\nheight = 1\nwidth = 1\nsteps = 2\n"),
        ],
        ids=["gain", "combine"],
    )
    def test_overflowing_render_is_a_numeric_error(self, command, text, tmp_path, capsys):
        assert run(command, write_config(tmp_path, text), tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and "render" in err

    @pytest.mark.parametrize(
        "command,text,message",
        [
            # z + dt * v overflows in the last step, of the latent and of the edit latent
            ("generate", "field = constant\nconstant_value = 1.7976931348623157e308\nmask = zeros\n"
             "hf_lambda = 0\nsteps = 35\n", "latent became non-finite stepping to t=0.0"),
            ("edit", "field = constant\nconstant_value = 1.7976931348623157e308\nmask = zeros\n"
             "hf_lambda = 0\nsteps = 35\n", "edit latent became non-finite stepping to t=0.0"),
            # the posterior mean's convex combination of points near float max rounds past it
            ("generate", "field = mixture\ntar.illum = 1 0 0 1.7976931348623157e308\n",
             "velocity field failed at t=0.92"),
            # output - source overflows outside the mask, and so does their RMS
            ("edit", "src.illum = 1 0 0 -1.7e308\ntar.illum = 1 0 0 1.7e308\nhf_lambda = 0\nsteps = 5\n",
             "bg_change_rms exceeds the float64 range"),
        ],
        ids=["generate-step", "edit-step", "posterior-mean", "bg-change-rms"],
    )
    def test_overflow_exits_with_one_line_naming_its_stage(self, command, text, message, tmp_path, capsys):
        assert run(command, write_config(tmp_path, text), tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1 and message in err
        assert not any((tmp_path / "o").iterdir())

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

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a CPU affinity mask")
    def test_edit_files_do_not_depend_on_the_cpu_count(self, tmp_path):
        # one CPU runs the band operator's frames as one range; the default splits 4 frames across CPUs
        text = BASE_CONFIG.replace("field = mixture", "field = point").replace("frames = 2", "frames = 4")
        text = text.replace("channels = 1", "channels = 2").replace("height = 16", "height = 32")
        config = write_config(tmp_path, text.replace("width = 16", "width = 32"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
        workers = {}
        for mode in ("one", "default"):
            result = subprocess.run(
                [sys.executable, "-c", ONE_CPU_SCRIPT, mode, str(config), str(tmp_path / mode)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            workers[mode] = int(result.stdout.split()[0])
        assert workers["one"] == 1
        if workers["default"] == 1:
            pytest.skip("this process may run on one CPU only, so both runs would take one range")
        files = tree_bytes(tmp_path / "one")
        assert {"output.fps", "metrics.txt", "frame_0003.pgm"} <= set(files)
        assert files == tree_bytes(tmp_path / "default")

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

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "latin.cfg"
        config.write_bytes(b"seed = 7\n# \xff\n")
        assert run("generate", config, tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {config}: ") and "utf-8" in err
        assert not (tmp_path / "x").exists()

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

        # the metrics score the edit against the stack it edited
        metrics = parse_metrics((tmp_path / "inp" / "metrics.txt").read_text())
        cfg = cfgmod.load_config(config)
        scene = cfgmod.build_scene(cfg)
        src, tar = cfgmod.build_bundles(cfg)
        mask = cfgmod.build_mask(cfg, scene, src)
        edited = read_stack(tmp_path / "input.fps")
        eps = sample_noise(cfg.seed, cfgmod.build_shape(cfg))
        edit_cfg = EditConfig(cfgmod.build_schedule(cfg), mask, cfg.reuse_interval, cfg.hf_lambda, cfg.hf_rho)
        output = run_edit(cfgmod.build_field(cfg, scene), edited, src, tar, eps, edit_cfg).output
        assert metrics["bg_change_rms"] == float(f"{bg_change_rms(output, edited, mask):.9g}")
        assert metrics["fg_structure_score"] == float(f"{fg_structure_score(output, edited, mask):.9g}")

    def test_paths_resolve_against_the_config_directory(self, tmp_path):
        write_stack(tmp_path / "input.fps", sample_noise(21, Shape(2, 1, 16, 16)))
        (tmp_path / "cfg").mkdir()
        text = BASE_CONFIG + f"input = {tmp_path / 'input.fps'}\nout_dir = rel\n"
        config = write_config(tmp_path / "cfg", text)
        assert main(["edit", "--config", str(config)]) == 0
        assert (tmp_path / "cfg" / "rel" / "output.fps").is_file()

    @pytest.mark.parametrize(
        "command,out,taken",
        [
            ("generate", "file", None),  # --out names an existing file
            ("equivalence", "file/out", None),  # --out names a path under a file
            ("edit", "out", "output.fps"),  # a directory holds an output file's name
            ("sweep-reuse", "out", "sweep.txt"),
        ],
    )
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, command, out, taken):
        (tmp_path / "file").write_text("taken\n")
        if taken is not None:
            (tmp_path / out / taken).mkdir(parents=True)
        config = write_config(tmp_path, BASE_CONFIG.replace("steps = 50", "steps = 10"))
        assert run(command, config, tmp_path / out) == 2
        assert capsys.readouterr().err.startswith("config error: key 'out_dir': ")

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

    @pytest.mark.parametrize(
        "command,lines,code,key",
        [
            ("generate", "input = missing.fps\n", 0, None),
            ("flowedit", "mask = missing.fps\n", 0, None),
            ("equivalence", "mask = missing.fps\n", 0, None),
            ("edit", "mask = missing.fps\n", 2, "mask"),
            ("sweep-reuse", "mask = missing.fps\n", 2, "mask"),
            ("edit", "mask = missing.fps\ninput = missing.fps\n", 2, "mask"),
        ],
    )
    def test_command_reads_only_what_it_needs(self, tmp_path, capsys, command, lines, code, key):
        # generate never reads the input stack; flowedit and equivalence never read the mask
        text = BASE_CONFIG.replace("steps = 50", "steps = 10").replace("mask = scene\n", "")
        config = write_config(tmp_path, text + lines)
        assert run(command, config, tmp_path / "o") == code
        if key is not None:
            assert capsys.readouterr().err.startswith(f"config error: key '{key}': cannot read missing.fps")

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("src.agnostic = 5, 3, 0.5", "src.agnostic = 5, 1e12, 0.5", "src.agnostic"),
            ("tar.agnostic = 5, 3, 0.5", "tar.agnostic = 5, 1e12, 0.5", "tar.agnostic"),
            ("height = 16\nwidth = 16", "height = 1000000\nwidth = 1000000", "frames*channels*height*width"),
            ("field = mixture", "field = mixture\nmixture.components = 100000000", "mixture.components"),
        ],
    )
    def test_oversized_value_is_rejected_before_allocating(self, tmp_path, capsys, old, new, key):
        # each would ask for terabytes, or loop for hours, were it not checked at load
        config = write_config(tmp_path, BASE_CONFIG.replace(old, new))
        assert run("generate", config, tmp_path / "big") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: key '{key}': ") and "must be <= " in err
        assert not (tmp_path / "big").exists()

    def test_all_zero_component_weights_are_config_error(self, tmp_path, capsys):
        text = "field = mixture\ncomponent.0.weight = 0\ncomponent.0.value = 1\nsteps = 2\n"
        assert run("generate", write_config(tmp_path, text), tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err == "config error: key 'component.*': mixture weights must not all be zero\n"

    def test_mask_with_too_few_frames_is_config_error(self, tmp_path, capsys):
        write_stack(tmp_path / "m.fps", LatentField.zeros(Shape(1, 1, 4, 4)))
        config = write_config(tmp_path, BASE_CONFIG.replace("mask = scene", "mask = m.fps"))
        assert run("edit", config, tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'mask': cannot pool ")
        assert "incompatible frame count: 1 -> 2" in err

    def test_mask_coarser_than_latent_is_config_error(self, tmp_path, capsys):
        write_stack(tmp_path / "m.fps", LatentField.zeros(Shape(2, 1, 8, 8)))
        config = write_config(tmp_path, BASE_CONFIG.replace("mask = scene", "mask = m.fps"))
        assert run("edit", config, tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'mask': cannot pool ")
        assert "cannot pool 8 cells up to 16" in err

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


# values for each drawn key: ordinary ones, extremes, and some out of range
FUZZ_VALUES = {
    "seed": ["0", "7", "18446744073709551615"],
    "frames": ["1", "2", "3"],
    "channels": ["1", "2"],
    "height": ["1", "2", "5", "8"],
    "width": ["1", "2", "5", "8"],
    "reuse_interval": ["1", "2", "3", "0"],
    "hf_lambda": ["0", "0.5", "1", "5e-324", "2"],
    "hf_rho": ["0", "0.8", "1", "1e-300"],
    "mask": ["scene", "ones", "zeros"],
    "field": ["constant", "point", "mixture"],
    "constant_value": ["0", "1e-300", "1.7e308", "-1.7e308", "1.7976931348623157e308"],
    "scene.mask_threshold": ["0.3", "5e-324", "0.999"],
    "mixture.components": ["1", "2", "4"],
    "mixture.spread": ["0", "0.25", "1e154", "1.7e308"],
    "mixture.seed": ["1", "-3"],
    "src.illum": [
        "1 0 0 0.2", "1.7e308 0 0 -1.7e308", "-1.7e308 1.7e308 3 1.7e308", "5e-324 1e-300 0 5e-324", "1e300 1e300 3 1e300",
        "1 0 0 -1.7e308",
    ],
    "tar.illum": [
        "2 0.3 0.8 0.6", "-1.7e308 0 0 1.7e308", "1 0 0 1.7e308", "1e-300 0 0 5e-324", "1e300 -1e300 1 1e300",
        "1 0 0 1.7976931348623157e308",
    ],
    "src.agnostic": ["5 3 0.5", "1 4 1e154", "5 3 1e200", "2 1 -1.7e308", "0 1 5e-324"],
    "tar.agnostic": ["5 3 0.5", "1 4 1e154", "5 3 -1e200", "2 2 1.7e308", "3 1 1e-300"],
    "equiv_tol": ["0", "1e-6", "1.7e308"],
    "identity_tol": ["0", "1e-5"],
    "fe_noise": ["fixed", "fresh"],
    "fe_navg": ["1", "2"],
    "sweep_r": ["1", "1 2", "1, 2, 5"],
}
FUZZ_SCHEDULES = [
    "steps = 1", "steps = 2", "steps = 5", "steps = 35", "knots = 0 5e-324 1", "knots = 0 1e-300 1",
    "knots = 0 0.5 1",
]
FUZZ_WEIGHTS = ["0", "0.5", "1", "5e-324", "1.7e308"]
FUZZ_POINTS = ["0", "1", "1e-300", "1e300", "-1.7e308"]


@st.composite
def fuzz_configs(draw):
    """A desk-size config of up to 10 drawn keys, a schedule, and up to 3 explicit components."""
    keys = draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)), max_size=10, unique=True))
    entries = {key: draw(st.sampled_from(FUZZ_VALUES[key])) for key in keys}
    lines = [draw(st.sampled_from(FUZZ_SCHEDULES))]
    components = draw(st.integers(0, 3))
    if components:
        entries["field"] = "mixture"
    for index in range(components):
        entries[f"component.{index}.weight"] = draw(st.sampled_from(FUZZ_WEIGHTS))
        entries[f"component.{index}.value"] = draw(st.sampled_from(FUZZ_POINTS))
    lines += [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


def _numbers(text: str) -> list[float]:
    """Every token of a key=value or space-separated output file that parses as a number."""
    numbers = []
    for token in text.replace("=", " ").split():
        with contextlib.suppress(ValueError):
            numbers.append(float(token))
    return numbers


# pytest's filterwarnings = ["error"] fails any example on a numpy warning
@settings(deadline=None, max_examples=50)
@given(text=fuzz_configs(), command=st.sampled_from(["generate", "edit", "flowedit", "equivalence", "sweep-reuse"]))
def test_any_config_exits_by_the_contract(text, command):
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "fuzz.cfg"
        config.write_text(text)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = run(command, config, Path(work) / "out")
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            assert stderr.getvalue().startswith(("config error:", "numeric error:"))
        else:
            for name in ("metrics.txt", "sweep.txt", "equivalence.txt"):
                path = Path(work) / "out" / name
                if path.exists():
                    assert all(math.isfinite(v) for v in _numbers(path.read_text()))
