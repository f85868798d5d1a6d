"""Line-oriented experiment configuration.

Format: one `key = value` per line, `#` starts a comment, blank lines are
ignored. Mixture components use indexed keys (component.0.weight,
component.0.file or component.0.value). Any unknown key, duplicate key, or
out-of-range value aborts before computation with a message naming the
key. Every knob defaults to the standard experiment (T=50, r=10,
lambda=0.5, rho=0.8, point field on the built-in scene); on a schedule of
fewer than 10 steps, unset r and sweep_r shrink to fit it.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Mapping
from dataclasses import Field, dataclass, field as dc_field, fields
from pathlib import Path
from typing import Any

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
# the scene sums one full-frame Gaussian per blob in every frame it renders
MAX_BLOBS = 1_000
# float64 values in one stack, or in a scene mixture's stacked components: 2**25 are 256 MiB
MAX_VALUES = 2**25


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


def _key(
    default: Any,
    parse: Callable[[str, str], Any],
    ok: Callable[[Any], bool],
    requirement: str,
    key: str | None = None,
) -> Any:
    """A scalar config key stored in the field it declares; `key` is its name when not the field's."""
    return dc_field(default=default, metadata=dict(key=key, parse=parse, ok=ok, requirement=requirement))


@dataclass(frozen=True)
class ComponentSpec:
    weight: float
    file: str | None = None
    value: float | None = None


# Every scalar key is one field declared with _key (its parser, a range check
# on the parsed value, and the requirement an out-of-range value is told), in
# the order keys are checked, so the first bad key of a file is the one reported.
@dataclass
class ExperimentConfig:
    seed: int = _key(0, _parse_int, lambda v: 0 <= v < 2**64, "must fit in 64 bits")
    frames: int = _key(2, _parse_int, *_AT_LEAST_1)
    channels: int = _key(1, _parse_int, *_AT_LEAST_1)
    height: int = _key(16, _parse_int, *_AT_LEAST_1)
    width: int = _key(16, _parse_int, *_AT_LEAST_1)
    steps: int = _key(50, _parse_steps, *_AT_LEAST_1)
    knots: tuple[float, ...] | None = _key(
        None, _NUMBERS, lambda v: len(v) <= MAX_STEPS + 1, f"must hold at most {MAX_STEPS + 1} values"
    )
    reuse_interval: int = _key(10, _parse_int, *_AT_LEAST_1)
    hf_lambda: float = _key(0.5, _parse_float, *_UNIT)
    hf_rho: float = _key(0.8, _parse_float, *_UNIT)
    mask: str = _key("scene", _parse_text, bool, "must not be empty")
    field: str = _key(
        "point",
        _parse_text,
        lambda v: v in ("constant", "point", "mixture"),
        "must be one of constant|point|mixture",
    )
    constant_value: float = _key(0.0, _parse_float, *_ANY)
    scene_mask_threshold: float = _key(
        0.3, _parse_float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)", "scene.mask_threshold"
    )
    mixture_components: int = _key(3, _parse_int, *_AT_LEAST_1, "mixture.components")
    mixture_spread: float = _key(0.25, _parse_float, *_NON_NEGATIVE, "mixture.spread")
    mixture_seed: int = _key(1, _parse_int, *_ANY, "mixture.seed")
    explicit_components: tuple[ComponentSpec, ...] = ()
    src_illum: tuple[float, ...] = _key((1.0, 0.0, 0.0, 0.2), *_ILLUM, "src.illum")
    src_agnostic: tuple[float, ...] = _key((5.0, 3.0, 0.5), *_AGNOSTIC, "src.agnostic")
    src_reference_file: str | None = _key(None, *_TEXT, "src.reference_file")
    src_structural_file: str | None = _key(None, *_TEXT, "src.structural_file")
    tar_illum: tuple[float, ...] = _key((2.0, 0.3, 0.8, 0.6), *_ILLUM, "tar.illum")
    tar_agnostic: tuple[float, ...] = _key((5.0, 3.0, 0.5), *_AGNOSTIC, "tar.agnostic")
    tar_reference_file: str | None = _key(None, *_TEXT, "tar.reference_file")
    tar_structural_file: str | None = _key(None, *_TEXT, "tar.structural_file")
    input: str | None = _key(None, *_TEXT)
    out_dir: str = _key("out", *_TEXT)
    equiv_tol: float = _key(1e-6, _parse_float, *_NON_NEGATIVE)
    identity_tol: float = _key(1e-5, _parse_float, *_NON_NEGATIVE)
    fe_noise: str = _key("fixed", _parse_text, lambda v: v in ("fixed", "fresh"), "must be fixed or fresh")
    fe_navg: int = _key(1, _parse_int, *_AT_LEAST_1)
    sweep_r: tuple[int, ...] = _key((1, 2, 5, 10), _parse_list(_parse_int, "integers"), *_ANY)

    # side table used by build_* helpers
    base_dir: Path = dc_field(default_factory=Path)


# each scalar key's field, in check order
_KEYS: dict[str, Field] = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig) if f.metadata}


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
    for key, spec in _KEYS.items():
        if key in known:
            value = spec.metadata["parse"](key, known[key])
            _check_range(spec.metadata["ok"](value), key, spec.metadata["requirement"])
            setattr(cfg, spec.name, value)
    for key, params in (("src.agnostic", cfg.src_agnostic), ("tar.agnostic", cfg.tar_agnostic)):
        _check_range(params[1] <= MAX_BLOBS, key, f"blob count must be <= {MAX_BLOBS}")
    values = cfg.frames * cfg.channels * cfg.height * cfg.width
    _check_range(values <= MAX_VALUES, "frames*channels*height*width", f"must be <= {MAX_VALUES}")
    if cfg.field == "mixture" and not components:
        most = MAX_VALUES // values
        _check_range(cfg.mixture_components <= most, "mixture.components", f"must be <= {most} at this size")

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

    # cross-field checks that need the assembled schedule; a default left
    # unset shrinks to fit a short schedule, a set value is checked as given
    steps = build_schedule(cfg).steps
    if "reuse_interval" not in known:
        cfg.reuse_interval = min(cfg.reuse_interval, steps)
    if "sweep_r" not in known:
        cfg.sweep_r = tuple(r for r in cfg.sweep_r if r <= steps)
    _check_range(cfg.reuse_interval <= steps, "reuse_interval", f"must not exceed the {steps} schedule steps")
    for r in cfg.sweep_r:
        _check_range(1 <= r <= steps, "sweep_r", f"value {r} outside [1, {steps}]")
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
        # relative to the config's directory; joining keeps an absolute path as it is
        loaded = read(cfg.base_dir / relative)
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
