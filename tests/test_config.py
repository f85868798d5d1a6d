import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcflow.cli import main
from rcflow.config import (
    _KEYS,
    MAX_STEPS,
    ExperimentConfig,
    build_bundles,
    build_experiment_config,
    build_field,
    build_input,
    build_mask,
    build_scene,
    build_schedule,
    build_shape,
    load_config,
    parse_config_text,
)
from rcflow.engine import sample_noise
from rcflow.errors import ConfigError
from rcflow.fields import render_target
from rcflow.latent import LatentField, Mask, Shape
from rcflow.stackio import read_mask, write_stack


def make_cfg(text="", base_dir=None):
    return build_experiment_config(parse_config_text(text), base_dir=base_dir)


class TestParser:
    def test_comments_and_blanks_ignored(self):
        entries = parse_config_text("# header\n\nseed = 4  # trailing\n")
        assert entries == {"seed": "4"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("seed 4")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2")


class TestValidation:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'sede'"):
            make_cfg("sede = 1")

    def test_hf_enabled_is_unknown(self, tmp_path, capsys):
        # hf_lambda = 0 is the one way to turn detail transfer off
        config = tmp_path / "exp.cfg"
        config.write_text("hf_enabled = true\n")
        assert main(["edit", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "config error: unknown key 'hf_enabled'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("steps = 0", "steps"),
            ("frames = -1", "frames"),
            ("hf_lambda = 1.5", "hf_lambda"),
            ("hf_rho = nan", "hf_rho"),
            ("reuse_interval = 0", "reuse_interval"),
            ("reuse_interval = 51", "reuse_interval"),
            ("field = banana", "field"),
            ("fe_noise = sometimes", "fe_noise"),
            ("fe_navg = 0", "fe_navg"),
            ("src.illum = 1,2", "src.illum"),
            ("tar.agnostic = 1", "tar.agnostic"),
            ("sweep_r = 0,5", "sweep_r"),
            ("knots = 0,2", "knots"),
            ("seed = -3", "seed"),
        ],
    )
    def test_out_of_range_names_key(self, line, fragment):
        with pytest.raises(ConfigError, match=fragment):
            make_cfg(line)

    def test_fixed_noise_requires_single_draw(self):
        with pytest.raises(ConfigError, match="fe_navg"):
            make_cfg("fe_noise = fixed\nfe_navg = 2")
        cfg = make_cfg("fe_noise = fresh\nfe_navg = 2")
        assert cfg.fe_navg == 2

    def test_defaults_follow_standard_experiment(self):
        cfg = make_cfg()
        assert cfg.steps == 50
        assert cfg.reuse_interval == 10
        assert cfg.hf_lambda == 0.5
        assert cfg.hf_rho == 0.8
        assert cfg.mask == "scene"

    def test_unset_defaults_fit_a_short_schedule(self):
        cfg = make_cfg("steps = 5")
        assert (cfg.reuse_interval, cfg.sweep_r) == (5, (1, 2, 5))
        cfg = make_cfg("knots = 0, 0.5, 1")
        assert (cfg.reuse_interval, cfg.sweep_r) == (2, (1, 2))
        cfg = make_cfg("steps = 5\nreuse_interval = 3\nsweep_r = 3")
        assert (cfg.reuse_interval, cfg.sweep_r) == (3, (3,))

    def test_component_keys_require_mixture(self):
        with pytest.raises(ConfigError, match="component"):
            make_cfg("field = point\ncomponent.0.weight = 1\ncomponent.0.value = 0")

    def test_component_indices_contiguous(self):
        with pytest.raises(ConfigError, match="contiguous"):
            make_cfg(
                "field = mixture\ncomponent.0.weight = 1\ncomponent.0.value = 0\n"
                "component.2.weight = 1\ncomponent.2.value = 1"
            )

    def test_component_needs_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            make_cfg("field = mixture\ncomponent.0.weight = 1")


# every key's parse and range failures, message for message; a file with
# several bad keys names the first in the key table's order
KEY_MESSAGES = [
    ("sede = 1", "unknown key 'sede'"),
    ("seed = x", "key 'seed': expected an integer, got 'x'"),
    ("seed = -3", "key 'seed': must fit in 64 bits"),
    ("seed = 18446744073709551616", "key 'seed': must fit in 64 bits"),
    ("frames = 1.5", "key 'frames': expected an integer, got '1.5'"),
    ("frames = 0", "key 'frames': must be >= 1"),
    ("channels = 0", "key 'channels': must be >= 1"),
    ("height = -2", "key 'height': must be >= 1"),
    ("width = w", "key 'width': expected an integer, got 'w'"),
    ("width = 0", "key 'width': must be >= 1"),
    ("steps = many", "key 'steps': expected an integer, got 'many'"),
    ("steps = 0", "key 'steps': must be >= 1"),
    ("knots =", "key 'knots': expected a list of numbers"),
    ("knots = 0, a, 1", "key 'knots': expected a number, got 'a'"),
    ("knots = 0, inf", "key 'knots': value must be finite"),
    ("knots = 0,2", "key 'knots': schedule must start at 0 and end at 1, got [0.0, 2.0]"),
    ("knots = 0, 0.5, 0.5, 1", "key 'knots': schedule knots must be strictly increasing"),
    ("knots = 0", "key 'knots': schedule needs at least two knots"),
    # knots fix the step count, so a steps value beside them would be ignored
    ("steps = 7\nknots = 0 0.5 1", "key 'steps': must not be set with knots"),
    ("reuse_interval = 2.0", "key 'reuse_interval': expected an integer, got '2.0'"),
    ("reuse_interval = 0", "key 'reuse_interval': must be >= 1"),
    ("reuse_interval = 51", "key 'reuse_interval': must not exceed the 50 schedule steps"),
    ("hf_lambda = half", "key 'hf_lambda': expected a number, got 'half'"),
    ("hf_lambda = 1.5", "key 'hf_lambda': must lie in [0, 1]"),
    ("hf_rho = nan", "key 'hf_rho': value must be finite"),
    ("hf_rho = -0.1", "key 'hf_rho': must lie in [0, 1]"),
    ("mask =", "key 'mask': must not be empty"),
    ("field = banana", "key 'field': must be one of constant|point|mixture"),
    ("constant_value = x", "key 'constant_value': expected a number, got 'x'"),
    ("constant_value = -inf", "key 'constant_value': value must be finite"),
    ("scene.mask_threshold = 1", "key 'scene.mask_threshold': must lie in (0, 1)"),
    ("scene.mask_threshold = 0", "key 'scene.mask_threshold': must lie in (0, 1)"),
    ("mixture.components = 0", "key 'mixture.components': must be >= 1"),
    ("mixture.components = x", "key 'mixture.components': expected an integer, got 'x'"),
    ("mixture.spread = -1", "key 'mixture.spread': must be >= 0"),
    ("mixture.seed = 1e3", "key 'mixture.seed': expected an integer, got '1e3'"),
    ("src.illum = 1,2", "key 'src.illum': must have 4 values"),
    ("src.illum =", "key 'src.illum': expected a list of numbers"),
    ("src.agnostic = 1, 2, x", "key 'src.agnostic': expected a number, got 'x'"),
    ("src.agnostic = 1", "key 'src.agnostic': must have 3 values"),
    ("tar.illum = 1 2 3 4 5", "key 'tar.illum': must have 4 values"),
    ("tar.agnostic = 1", "key 'tar.agnostic': must have 3 values"),
    ("equiv_tol = -1e-9", "key 'equiv_tol': must be >= 0"),
    ("identity_tol = tiny", "key 'identity_tol': expected a number, got 'tiny'"),
    ("identity_tol = -1", "key 'identity_tol': must be >= 0"),
    ("fe_noise = sometimes", "key 'fe_noise': must be fixed or fresh"),
    ("fe_navg = 0", "key 'fe_navg': must be >= 1"),
    ("fe_navg = 2", "key 'fe_navg': fixed noise mode requires 1"),
    ("sweep_r =", "key 'sweep_r': expected a list of integers"),
    ("sweep_r = 1, x", "key 'sweep_r': expected an integer, got 'x'"),
    ("sweep_r = 0,5", "key 'sweep_r': value 0 outside [1, 50]"),
    ("steps = 10\nsweep_r = 1, 11", "key 'sweep_r': value 11 outside [1, 10]"),
    ("field = point\ncomponent.0.weight = 1\ncomponent.0.value = 0",
     "key 'component.*': only valid with field = mixture"),
    ("field = mixture\ncomponent.1.weight = 1\ncomponent.1.value = 0",
     "key 'component.0.*': component indices must be contiguous from 0"),
    ("field = mixture\ncomponent.0.value = 0", "key 'component.0.weight': required"),
    ("field = mixture\ncomponent.0.weight = 1", "key 'component.0': needs exactly one of .file or .value"),
    ("field = mixture\ncomponent.0.weight = -1\ncomponent.0.value = 0",
     "key 'component.0.weight': must be >= 0"),
    ("field = mixture\ncomponent.0.weight = 1\ncomponent.0.value = v",
     "key 'component.0.value': expected a number, got 'v'"),
    ("sweep_r = 0\nwidth = 0\nseed = -1", "key 'seed': must fit in 64 bits"),
    ("hf_rho = 2\nhf_lambda = 2", "key 'hf_lambda': must lie in [0, 1]"),
    ("fe_navg = 0\ntar.illum = 1\nfield = banana", "key 'field': must be one of constant|point|mixture"),
    ("field = banana\nbogus = 1", "unknown key 'bogus'"),
    ("steps = 1000001", "key 'steps': must be <= 1000000"),
    ("steps = 4611686018427387904", "key 'steps': must be <= 1000000"),
    # bounds on what a run would allocate or loop over, checked before any of it
    ("src.agnostic = 5, 1e12, 0.5", "key 'src.agnostic': blob count must be <= 1000"),
    ("tar.agnostic = 5, 1001, 0.5", "key 'tar.agnostic': blob count must be <= 1000"),
    ("height = 1000000\nwidth = 1000000", "key 'frames*channels*height*width': must be <= 33554432"),
    ("frames = 3\nheight = 4096\nwidth = 4096", "key 'frames*channels*height*width': must be <= 33554432"),
    ("field = mixture\nmixture.components = 100000000",
     "key 'mixture.components': must be <= 65536 at this size"),
    ("field = mixture\nchannels = 4\nmixture.components = 16385",
     "key 'mixture.components': must be <= 16384 at this size"),
]


@pytest.mark.parametrize("text,message", KEY_MESSAGES)
def test_exact_error_message(text, message):
    with pytest.raises(ConfigError) as info:
        make_cfg(text)
    assert str(info.value) == message


def test_key_table_names_every_scalar_field():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert {key.replace(".", "_") for key in _KEYS} == fields - {"explicit_components", "base_dir"}


def test_readme_names_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    missing = [key for key in _KEYS if not re.search(rf"`{re.escape(key)}`|^{re.escape(key)} = ", readme, re.M)]
    assert not missing, f"README.md does not name {missing}"


def test_unallocatable_steps_is_config_error():
    # numpy refuses a 2**62 + 1 knot grid before allocating anything
    with pytest.raises(ConfigError) as info:
        make_cfg("steps = 4611686018427387904")
    assert str(info.value).startswith("key 'steps': ")


def test_bounds_admit_their_limits():
    # a config is checked, not materialized, so the largest admitted values load at once
    make_cfg("src.agnostic = 5, 1000, 0.5\ntar.agnostic = 5, -1e12, 0.5")
    make_cfg("frames = 2\nheight = 4096\nwidth = 4096")
    make_cfg("field = mixture\nmixture.components = 65536")
    # explicit components are listed in the file, so mixture.components does not apply
    make_cfg("field = mixture\nmixture.components = 65537\ncomponent.0.weight = 1\ncomponent.0.value = 0")


def test_knots_count_is_bounded():
    # one value more than a schedule of MAX_STEPS steps holds
    with pytest.raises(ConfigError) as info:
        make_cfg("knots = " + "0 " * (MAX_STEPS + 2))
    assert str(info.value) == "key 'knots': must hold at most 1000001 values"


_BIG = [str(2**62), str(2**64), str(10**30)]
_POOL = [
    "", "x", "1,x", "true", "false", "fresh", "fixed", "mixture", "point", "ones", "scene",
    "nan", "inf", "-inf", "1e400", "0.5", "1.5", "-0.25", "1,2", "0, 0.5, 1", "1 2 3 4", "5,3,0.5",
]


def _values(big):
    return st.one_of(
        st.sampled_from(_POOL + (_BIG if big else [])),
        st.integers(-3, 60).map(str),
        st.floats().map(repr),
        # five characters parse to at most 99999 as an int
        st.text(max_size=5),
        st.lists(st.sampled_from(["0", "0.5", "1", "2", "-1", "10", "nan", "x"]), max_size=5).map(", ".join),
    )


_COMPONENT_KEYS = [f"component.{i}.{part}" for i in range(3) for part in ("weight", "file", "value")]
_FUZZ_KEYS = [*_KEYS, *_COMPONENT_KEYS, "bogus"]


@st.composite
def entry_dicts(draw):
    # steps stays below 10**6: a uniform schedule allocates steps + 1 knots
    entries = {
        key: draw(_values(big=key != "steps"))
        for key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), unique=True, max_size=10))
    }
    if draw(st.booleans()):
        entries.setdefault("field", "mixture")
    return entries


@settings(deadline=None, max_examples=300)
@given(entry_dicts())
def test_any_entries_build_or_raise_config_error(entries):
    try:
        cfg = build_experiment_config(entries)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


_LINE_PARTS = st.one_of(st.sampled_from([*_FUZZ_KEYS, "=", " = ", "#", "\n", "\r\n", ","]), st.text(max_size=4))


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(), st.lists(_LINE_PARTS, max_size=30).map("".join)))
def test_any_text_loads_or_raises_config_error(text):
    try:
        cfg = build_experiment_config(parse_config_text(text))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


class TestBuilders:
    def test_schedule_from_explicit_knots(self):
        cfg = make_cfg("knots = 0, 0.25, 1\nreuse_interval = 1\nsweep_r = 1,2")
        assert build_schedule(cfg).steps == 2

    def test_schedule_uniform_default(self):
        assert build_schedule(make_cfg()).steps == 50

    def test_shape(self):
        cfg = make_cfg("frames = 3\nchannels = 2\nheight = 4\nwidth = 8")
        assert build_shape(cfg) == Shape(3, 2, 4, 8)

    def test_mask_sources(self, tmp_path):
        cfg = make_cfg("mask = ones")
        scene = build_scene(cfg)
        src, _ = build_bundles(cfg)
        assert float(build_mask(cfg, scene, src).data.min()) == 1.0

        cfg = make_cfg("mask = zeros")
        assert float(build_mask(cfg, build_scene(cfg), src).data.max()) == 0.0

        cfg = make_cfg("mask = scene")
        mask = build_mask(cfg, build_scene(cfg), src)
        assert 0.0 < float(mask.data.mean()) < 1.0

    def test_mask_file_downsampled(self, tmp_path):
        big = Mask.ones(Shape(2, 1, 32, 32))
        write_stack(tmp_path / "mask.fps", LatentField(big.data))
        cfg = make_cfg("mask = mask.fps", base_dir=tmp_path)
        mask = build_mask(cfg, build_scene(cfg), build_bundles(cfg)[0])
        assert mask.shape == Shape(2, 1, 16, 16)
        np.testing.assert_allclose(mask.data, 1.0)

    def test_mask_file_of_the_run_shape_is_used_as_read(self, tmp_path, monkeypatch):
        values = np.linspace(0.0, 1.0, 2 * 16 * 16).reshape(2, 1, 16, 16)
        write_stack(tmp_path / "mask.fps", LatentField(values))
        monkeypatch.setattr("rcflow.config.downsample_mask", None)  # not pooled: calling it fails
        cfg = make_cfg("mask = mask.fps", base_dir=tmp_path)
        mask = build_mask(cfg, build_scene(cfg), build_bundles(cfg)[0])
        assert mask == read_mask(tmp_path / "mask.fps")

    def test_input_file_roundtrip(self, tmp_path):
        z0 = sample_noise(3, Shape(2, 1, 16, 16))
        write_stack(tmp_path / "input.fps", z0)
        cfg = make_cfg("input = input.fps", base_dir=tmp_path)
        loaded = build_input(cfg, build_scene(cfg), build_bundles(cfg)[0])
        assert np.max(np.abs(loaded.data - z0.data)) <= 1e-6 * (1 + z0.max_abs())

    def test_input_defaults_to_source_render(self):
        cfg = make_cfg()
        scene = build_scene(cfg)
        src, _ = build_bundles(cfg)
        assert build_input(cfg, scene, src) == render_target(scene, src)

    def test_input_shape_mismatch_rejected(self, tmp_path):
        write_stack(tmp_path / "small.fps", sample_noise(4, Shape(1, 1, 4, 4)))
        cfg = make_cfg("input = small.fps", base_dir=tmp_path)
        with pytest.raises(ConfigError, match="input"):
            build_input(cfg, build_scene(cfg), build_bundles(cfg)[0])

    def test_explicit_mixture_components(self, tmp_path):
        write_stack(tmp_path / "c0.fps", sample_noise(5, Shape(2, 1, 16, 16)))
        cfg = make_cfg(
            "field = mixture\n"
            "component.0.weight = 2\ncomponent.0.file = c0.fps\n"
            "component.1.weight = 1\ncomponent.1.value = 0.5\n",
            base_dir=tmp_path,
        )
        field = build_field(cfg, build_scene(cfg))
        z = sample_noise(6, Shape(2, 1, 16, 16))
        out = field.evaluate(z, 0.9, build_bundles(cfg)[0])
        assert out.shape == Shape(2, 1, 16, 16)

    def test_reference_file_feeds_bundle(self, tmp_path):
        ref = sample_noise(7, Shape(1, 1, 16, 16))
        write_stack(tmp_path / "ref.fps", ref)
        cfg = make_cfg("src.reference_file = ref.fps", base_dir=tmp_path)
        src, tar = build_bundles(cfg)
        assert src.reference_frame is not None
        assert tar.reference_frame is None

    def test_missing_file_is_config_error(self, tmp_path):
        cfg = make_cfg("input = nope.fps", base_dir=tmp_path)
        with pytest.raises(ConfigError, match="nope.fps"):
            build_input(cfg, build_scene(cfg), build_bundles(cfg)[0])


def test_load_config_reports_unreadable_path(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.cfg")
