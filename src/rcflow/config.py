"""Line-oriented experiment configuration.

Format: one `key = value` per line, `#` starts a comment, blank lines are
ignored. Mixture components use indexed keys (component.0.weight,
component.0.file or component.0.value). Any unknown key, duplicate key, or
out-of-range value aborts before computation with a message naming the
key. Every knob defaults to the standard experiment (T=50, r=10,
lambda=0.5, rho=0.8, point field on the built-in scene).
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any

from .edit import EditConfig
from .engine import ConditionBundle, Schedule, VelocityField, make_uniform_schedule
from .errors import ConfigError, NumericError
from .fields import (
    AGNOSTIC_ARITY,
    ILLUM_ARITY,
    MixtureDataset,
    ToyScene,
    constant_field,
    mixture_field,
    point_field,
    render_target,
    scene_mixture_field,
)
from .flowedit import FlowEditConfig, NoiseMode
from .latent import LatentField, Mask, Shape, downsample_mask
from .stackio import read_mask, read_stack

_COMPONENT_KEY = re.compile(r"^component\.(\d+)\.(weight|file|value)$")


def parse_config_text(text: str, *, source: str = "<string>") -> dict[str, str]:
    entries: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{number}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{number}: missing key")
        if key in entries:
            raise ConfigError(f"{source}:{number}: duplicate key '{key}'")
        entries[key] = value
    return entries


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': expected an integer, got {value!r}") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        parsed = float(value)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': expected a number, got {value!r}") from exc
    if not math.isfinite(parsed):
        raise ConfigError(f"key '{key}': value must be finite")
    return parsed


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ConfigError(f"key '{key}': expected true/false, got {value!r}")


def _parse_text(key: str, value: str) -> str:
    return value


def _parse_list(parse_item: Callable[[str, str], Any], kind: str) -> Callable[[str, str], tuple]:
    def parse(key: str, value: str) -> tuple:
        parts = value.replace(",", " ").split()
        if not parts:
            raise ConfigError(f"key '{key}': expected a list of {kind}")
        return tuple(parse_item(key, p) for p in parts)

    return parse


# a uniform schedule allocates steps + 1 knots, and a run stores one norm per step
MAX_STEPS = 1_000_000


def _parse_steps(key: str, value: str) -> int:
    steps = _parse_int(key, value)
    _check_range(steps <= MAX_STEPS, key, f"must be <= {MAX_STEPS}")
    return steps


_NUMBERS = _parse_list(_parse_float, "numbers")
_ANY = (lambda v: True, "")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be >= 0")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_TEXT = (_parse_text, *_ANY)
_ILLUM = (_NUMBERS, lambda v: len(v) == ILLUM_ARITY, f"must have {ILLUM_ARITY} values")
_AGNOSTIC = (_NUMBERS, lambda v: len(v) == AGNOSTIC_ARITY, f"must have {AGNOSTIC_ARITY} values")

# Every scalar key in the order it is checked, so the first bad key of a
# file is the one reported: its parser, a range check on the parsed value,
# and the requirement an out-of-range value is told. The value lands in the
# ExperimentConfig field named like the key with "." as "_".
_KEYS: dict[str, tuple[Callable[[str, str], Any], Callable[[Any], bool], str]] = {
    "seed": (_parse_int, lambda v: 0 <= v < 2**64, "must fit in 64 bits"),
    **dict.fromkeys(("frames", "channels", "height", "width"), (_parse_int, *_AT_LEAST_1)),
    "steps": (_parse_steps, *_AT_LEAST_1),
    "knots": (_NUMBERS, lambda v: len(v) <= MAX_STEPS + 1, f"must hold at most {MAX_STEPS + 1} values"),
    "reuse_interval": (_parse_int, *_AT_LEAST_1),
    "hf_lambda": (_parse_float, *_UNIT),
    "hf_rho": (_parse_float, *_UNIT),
    "hf_enabled": (_parse_bool, *_ANY),
    "mask": (_parse_text, bool, "must not be empty"),
    "field": (
        _parse_text,
        lambda v: v in ("constant", "point", "mixture"),
        "must be one of constant|point|mixture",
    ),
    "constant_value": (_parse_float, *_ANY),
    "scene.mask_threshold": (_parse_float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "mixture.components": (_parse_int, *_AT_LEAST_1),
    "mixture.spread": (_parse_float, *_NON_NEGATIVE),
    "mixture.seed": (_parse_int, *_ANY),
    "src.illum": _ILLUM,
    "src.agnostic": _AGNOSTIC,
    "src.reference_file": _TEXT,
    "src.structural_file": _TEXT,
    "tar.illum": _ILLUM,
    "tar.agnostic": _AGNOSTIC,
    "tar.reference_file": _TEXT,
    "tar.structural_file": _TEXT,
    "input": _TEXT,
    "out_dir": _TEXT,
    "equiv_tol": (_parse_float, *_NON_NEGATIVE),
    "identity_tol": (_parse_float, *_NON_NEGATIVE),
    "fe_noise": (_parse_text, lambda v: v in ("fixed", "fresh"), "must be fixed or fresh"),
    "fe_navg": (_parse_int, *_AT_LEAST_1),
    "sweep_r": (_parse_list(_parse_int, "integers"), *_ANY),
}


@dataclass(frozen=True)
class ComponentSpec:
    weight: float
    file: str | None = None
    value: float | None = None


@dataclass
class ExperimentConfig:
    seed: int = 0
    frames: int = 2
    channels: int = 1
    height: int = 16
    width: int = 16
    steps: int = 50
    knots: tuple[float, ...] | None = None
    reuse_interval: int = 10
    hf_lambda: float = 0.5
    hf_rho: float = 0.8
    hf_enabled: bool = True
    mask: str = "scene"
    field: str = "point"
    constant_value: float = 0.0
    scene_mask_threshold: float = 0.3
    mixture_components: int = 3
    mixture_spread: float = 0.25
    mixture_seed: int = 1
    explicit_components: tuple[ComponentSpec, ...] = ()
    src_illum: tuple[float, ...] = (1.0, 0.0, 0.0, 0.2)
    src_agnostic: tuple[float, ...] = (5.0, 3.0, 0.5)
    src_reference_file: str | None = None
    src_structural_file: str | None = None
    tar_illum: tuple[float, ...] = (2.0, 0.3, 0.8, 0.6)
    tar_agnostic: tuple[float, ...] = (5.0, 3.0, 0.5)
    tar_reference_file: str | None = None
    tar_structural_file: str | None = None
    input: str | None = None
    out_dir: str = "out"
    equiv_tol: float = 1e-6
    identity_tol: float = 1e-5
    fe_noise: str = "fixed"
    fe_navg: int = 1
    sweep_r: tuple[int, ...] = (1, 2, 5, 10)

    # side table used by build_* helpers
    base_dir: Path = dc_field(default_factory=Path)


def _check_range(ok: bool, key: str, requirement: str) -> None:
    if not ok:
        raise ConfigError(f"key '{key}': {requirement}")


def build_experiment_config(
    entries: dict[str, str], *, base_dir: Path | None = None
) -> ExperimentConfig:
    known = dict(entries)
    components: dict[int, dict[str, str]] = {}
    for key in list(known):
        match = _COMPONENT_KEY.match(key)
        if match:
            components.setdefault(int(match.group(1)), {})[match.group(2)] = known.pop(key)
    for key in known:
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}'")

    cfg = ExperimentConfig(base_dir=base_dir or Path())
    for key, (parse, ok, requirement) in _KEYS.items():
        if key in known:
            value = parse(key, known[key])
            _check_range(ok(value), key, requirement)
            setattr(cfg, key.replace(".", "_"), value)

    if components:
        _check_range(cfg.field == "mixture", "component.*", "only valid with field = mixture")
        specs = []
        for index in range(len(components)):
            if index not in components:
                raise ConfigError(f"key 'component.{index}.*': component indices must be contiguous from 0")
            entry = components[index]
            if "weight" not in entry:
                raise ConfigError(f"key 'component.{index}.weight': required")
            weight = _parse_float(f"component.{index}.weight", entry["weight"])
            _check_range(weight >= 0.0, f"component.{index}.weight", "must be >= 0")
            has_file = "file" in entry
            has_value = "value" in entry
            if has_file == has_value:
                raise ConfigError(
                    f"key 'component.{index}': needs exactly one of .file or .value"
                )
            specs.append(
                ComponentSpec(
                    weight=weight,
                    file=entry.get("file"),
                    value=_parse_float(f"component.{index}.value", entry["value"])
                    if has_value
                    else None,
                )
            )
        cfg.explicit_components = tuple(specs)

    # cross-field checks that need the assembled schedule
    schedule = build_schedule(cfg)
    _check_range(
        cfg.reuse_interval <= schedule.steps,
        "reuse_interval",
        f"must not exceed the {schedule.steps} schedule steps",
    )
    for r in cfg.sweep_r:
        _check_range(1 <= r <= schedule.steps, "sweep_r", f"value {r} outside [1, {schedule.steps}]")
    if cfg.fe_noise == "fixed":
        _check_range(cfg.fe_navg == 1, "fe_navg", "fixed noise mode requires 1")
    return cfg


def load_config(path: str | Path, overrides: Mapping[str, str] | None = None) -> ExperimentConfig:
    """Read a config file; overrides (key -> value text) replace its entries before any check."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries = parse_config_text(text, source=str(path))
    entries.update(overrides or {})
    return build_experiment_config(entries, base_dir=path.parent)


# ---------------------------------------------------------------------------
# Materialization of runtime objects
# ---------------------------------------------------------------------------


def build_shape(cfg: ExperimentConfig) -> Shape:
    return Shape(cfg.frames, cfg.channels, cfg.height, cfg.width)


def build_schedule(cfg: ExperimentConfig) -> Schedule:
    key = "steps" if cfg.knots is None else "knots"
    try:
        return make_uniform_schedule(cfg.steps) if cfg.knots is None else Schedule(cfg.knots)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from exc


def build_scene(cfg: ExperimentConfig) -> ToyScene:
    return ToyScene(build_shape(cfg), mask_threshold=cfg.scene_mask_threshold)


def _resolve(cfg: ExperimentConfig, relative: str) -> Path:
    path = Path(relative)
    return path if path.is_absolute() else cfg.base_dir / path


def _load_stack(
    cfg: ExperimentConfig,
    key: str,
    relative: str | None,
    read: Callable[[Path], Any],
    expected: Shape | None = None,
) -> Any:
    """Read the stack file a key names; every fault is a ConfigError naming the key."""
    if relative is None:
        return None
    try:
        loaded = read(_resolve(cfg, relative))
    except OSError as exc:
        raise ConfigError(f"key '{key}': cannot read {relative}: {exc}") from exc
    except (ValueError, NumericError) as exc:
        raise ConfigError(f"key '{key}': {exc}") from exc
    if expected is not None and loaded.shape != expected:
        raise ConfigError(
            f"key '{key}': stack shape {loaded.shape} does not match expected shape {expected}"
        )
    return loaded


def build_bundles(cfg: ExperimentConfig) -> tuple[ConditionBundle, ConditionBundle]:
    shape = build_shape(cfg)
    # a reference file anchors frame 0 only, so it holds a single frame
    frame = Shape(1, shape.channels, shape.height, shape.width)
    src = ConditionBundle(
        illum_params=cfg.src_illum,
        agnostic_params=cfg.src_agnostic,
        reference_frame=_load_stack(cfg, "src.reference_file", cfg.src_reference_file, read_stack, frame),
        structural=_load_stack(cfg, "src.structural_file", cfg.src_structural_file, read_stack, shape),
    )
    tar = ConditionBundle(
        illum_params=cfg.tar_illum,
        agnostic_params=cfg.tar_agnostic,
        reference_frame=_load_stack(cfg, "tar.reference_file", cfg.tar_reference_file, read_stack, frame),
        structural=_load_stack(cfg, "tar.structural_file", cfg.tar_structural_file, read_stack, shape),
    )
    return src, tar


def build_field(cfg: ExperimentConfig, scene: ToyScene) -> VelocityField:
    if cfg.field == "constant":
        return constant_field(LatentField.full(build_shape(cfg), cfg.constant_value))
    if cfg.field == "point":
        return point_field(scene)
    if cfg.explicit_components:
        shape = build_shape(cfg)
        members = []
        for index, spec in enumerate(cfg.explicit_components):
            if spec.file is not None:
                point = _load_stack(cfg, f"component.{index}.file", spec.file, read_stack, shape)
            else:
                point = LatentField.full(shape, spec.value)
            members.append((spec.weight, point))
        try:
            return mixture_field(MixtureDataset(tuple(members)))
        except ValueError as exc:
            raise ConfigError(f"key 'component.*': {exc}") from exc
    return scene_mixture_field(
        scene,
        components=cfg.mixture_components,
        spread=cfg.mixture_spread,
        seed=cfg.mixture_seed,
    )


def build_mask(cfg: ExperimentConfig, scene: ToyScene, src: ConditionBundle) -> Mask:
    shape = build_shape(cfg)
    if cfg.mask == "ones":
        return Mask.ones(shape)
    if cfg.mask == "zeros":
        return Mask.zeros(shape)
    if cfg.mask == "scene":
        return scene.true_mask(src.agnostic_params)
    loaded = _load_stack(cfg, "mask", cfg.mask, read_mask)
    if loaded.shape == Shape(shape.frames, 1, shape.height, shape.width):
        return loaded
    try:
        return downsample_mask(loaded, shape)
    except ValueError as exc:
        raise ConfigError(f"key 'mask': cannot pool {loaded.shape} to {shape}: {exc}") from exc


def build_input(cfg: ExperimentConfig, scene: ToyScene, src: ConditionBundle) -> LatentField:
    if cfg.input is None:
        return render_target(scene, src)
    return _load_stack(cfg, "input", cfg.input, read_stack, build_shape(cfg))


def build_edit_config(cfg: ExperimentConfig, mask: Mask, *, reuse_interval: int | None = None) -> EditConfig:
    return EditConfig(
        schedule=build_schedule(cfg),
        mask=mask,
        reuse_interval=cfg.reuse_interval if reuse_interval is None else reuse_interval,
        hf_lambda=cfg.hf_lambda,
        hf_rho=cfg.hf_rho,
        hf_enabled=cfg.hf_enabled,
    )


def build_flowedit_config(cfg: ExperimentConfig) -> FlowEditConfig:
    mode = NoiseMode.FIXED if cfg.fe_noise == "fixed" else NoiseMode.FRESH_PER_STEP
    return FlowEditConfig(
        schedule=build_schedule(cfg), noise_mode=mode, n_avg=cfg.fe_navg, seed=cfg.seed
    )
