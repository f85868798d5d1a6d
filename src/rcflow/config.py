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
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .edit import EditConfig
from .engine import ConditionBundle, Schedule, VelocityField, make_uniform_schedule
from .errors import ConfigError
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

_SCALAR_KEYS = {
    "seed",
    "frames",
    "channels",
    "height",
    "width",
    "steps",
    "knots",
    "reuse_interval",
    "hf_lambda",
    "hf_rho",
    "hf_enabled",
    "mask",
    "field",
    "constant_value",
    "scene.mask_threshold",
    "mixture.components",
    "mixture.spread",
    "mixture.seed",
    "src.illum",
    "src.agnostic",
    "src.reference_file",
    "src.structural_file",
    "tar.illum",
    "tar.agnostic",
    "tar.reference_file",
    "tar.structural_file",
    "input",
    "out_dir",
    "equiv_tol",
    "identity_tol",
    "fe_noise",
    "fe_navg",
    "sweep_r",
}


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


def _parse_floats(key: str, value: str) -> tuple[float, ...]:
    parts = [p for p in value.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"key '{key}': expected a list of numbers")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_ints(key: str, value: str) -> tuple[int, ...]:
    parts = [p for p in value.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"key '{key}': expected a list of integers")
    return tuple(_parse_int(key, p) for p in parts)


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
        if key not in _SCALAR_KEYS:
            raise ConfigError(f"unknown key '{key}'")

    cfg = ExperimentConfig(base_dir=base_dir or Path())

    if "seed" in known:
        cfg.seed = _parse_int("seed", known["seed"])
        _check_range(0 <= cfg.seed < 2**64, "seed", "must fit in 64 bits")
    for name in ("frames", "channels", "height", "width"):
        if name in known:
            value = _parse_int(name, known[name])
            _check_range(value >= 1, name, "must be >= 1")
            setattr(cfg, name, value)
    if "steps" in known:
        cfg.steps = _parse_int("steps", known["steps"])
        _check_range(cfg.steps >= 1, "steps", "must be >= 1")
    if "knots" in known:
        cfg.knots = _parse_floats("knots", known["knots"])
    if "reuse_interval" in known:
        cfg.reuse_interval = _parse_int("reuse_interval", known["reuse_interval"])
        _check_range(cfg.reuse_interval >= 1, "reuse_interval", "must be >= 1")
    for name in ("hf_lambda", "hf_rho"):
        if name in known:
            value = _parse_float(name, known[name])
            _check_range(0.0 <= value <= 1.0, name, "must lie in [0, 1]")
            setattr(cfg, name, value)
    if "hf_enabled" in known:
        cfg.hf_enabled = _parse_bool("hf_enabled", known["hf_enabled"])
    if "mask" in known:
        _check_range(bool(known["mask"]), "mask", "must not be empty")
        cfg.mask = known["mask"]
    if "field" in known:
        _check_range(
            known["field"] in ("constant", "point", "mixture"),
            "field",
            "must be one of constant|point|mixture",
        )
        cfg.field = known["field"]
    if "constant_value" in known:
        cfg.constant_value = _parse_float("constant_value", known["constant_value"])
    if "scene.mask_threshold" in known:
        value = _parse_float("scene.mask_threshold", known["scene.mask_threshold"])
        _check_range(0.0 < value < 1.0, "scene.mask_threshold", "must lie in (0, 1)")
        cfg.scene_mask_threshold = value
    if "mixture.components" in known:
        cfg.mixture_components = _parse_int("mixture.components", known["mixture.components"])
        _check_range(cfg.mixture_components >= 1, "mixture.components", "must be >= 1")
    if "mixture.spread" in known:
        cfg.mixture_spread = _parse_float("mixture.spread", known["mixture.spread"])
        _check_range(cfg.mixture_spread >= 0.0, "mixture.spread", "must be >= 0")
    if "mixture.seed" in known:
        cfg.mixture_seed = _parse_int("mixture.seed", known["mixture.seed"])
    for prefix in ("src", "tar"):
        illum_key = f"{prefix}.illum"
        if illum_key in known:
            values = _parse_floats(illum_key, known[illum_key])
            _check_range(len(values) == ILLUM_ARITY, illum_key, f"must have {ILLUM_ARITY} values")
            setattr(cfg, f"{prefix}_illum", values)
        agnostic_key = f"{prefix}.agnostic"
        if agnostic_key in known:
            values = _parse_floats(agnostic_key, known[agnostic_key])
            _check_range(
                len(values) == AGNOSTIC_ARITY, agnostic_key, f"must have {AGNOSTIC_ARITY} values"
            )
            setattr(cfg, f"{prefix}_agnostic", values)
        for suffix in ("reference_file", "structural_file"):
            key = f"{prefix}.{suffix}"
            if key in known:
                setattr(cfg, f"{prefix}_{suffix}", known[key])
    if "input" in known:
        cfg.input = known["input"]
    if "out_dir" in known:
        cfg.out_dir = known["out_dir"]
    for name in ("equiv_tol", "identity_tol"):
        if name in known:
            value = _parse_float(name, known[name])
            _check_range(value >= 0.0, name, "must be >= 0")
            setattr(cfg, name, value)
    if "fe_noise" in known:
        _check_range(
            known["fe_noise"] in ("fixed", "fresh"), "fe_noise", "must be fixed or fresh"
        )
        cfg.fe_noise = known["fe_noise"]
    if "fe_navg" in known:
        cfg.fe_navg = _parse_int("fe_navg", known["fe_navg"])
        _check_range(cfg.fe_navg >= 1, "fe_navg", "must be >= 1")
    if "sweep_r" in known:
        cfg.sweep_r = _parse_ints("sweep_r", known["sweep_r"])
        _check_range(bool(cfg.sweep_r), "sweep_r", "must not be empty")

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


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries = parse_config_text(text, source=str(path))
    return build_experiment_config(entries, base_dir=path.parent)


# ---------------------------------------------------------------------------
# Materialization of runtime objects
# ---------------------------------------------------------------------------


def build_shape(cfg: ExperimentConfig) -> Shape:
    return Shape(cfg.frames, cfg.channels, cfg.height, cfg.width)


def build_schedule(cfg: ExperimentConfig) -> Schedule:
    if cfg.knots is not None:
        try:
            return Schedule(cfg.knots)
        except ValueError as exc:
            raise ConfigError(f"key 'knots': {exc}") from exc
    return make_uniform_schedule(cfg.steps)


def build_scene(cfg: ExperimentConfig) -> ToyScene:
    return ToyScene(build_shape(cfg), mask_threshold=cfg.scene_mask_threshold)


def _resolve(cfg: ExperimentConfig, relative: str) -> Path:
    path = Path(relative)
    return path if path.is_absolute() else cfg.base_dir / path


def _load_optional(
    cfg: ExperimentConfig, key: str, relative: str | None, expected: Shape
) -> LatentField | None:
    if relative is None:
        return None
    try:
        loaded = read_stack(_resolve(cfg, relative))
    except OSError as exc:
        raise ConfigError(f"key '{key}': cannot read {relative}: {exc}") from exc
    if loaded.shape != expected:
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
        reference_frame=_load_optional(cfg, "src.reference_file", cfg.src_reference_file, frame),
        structural=_load_optional(cfg, "src.structural_file", cfg.src_structural_file, shape),
    )
    tar = ConditionBundle(
        illum_params=cfg.tar_illum,
        agnostic_params=cfg.tar_agnostic,
        reference_frame=_load_optional(cfg, "tar.reference_file", cfg.tar_reference_file, frame),
        structural=_load_optional(cfg, "tar.structural_file", cfg.tar_structural_file, shape),
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
                try:
                    point = read_stack(_resolve(cfg, spec.file))
                except OSError as exc:
                    raise ConfigError(
                        f"key 'component.{index}.file': cannot read {spec.file}: {exc}"
                    ) from exc
                if point.shape != shape:
                    raise ConfigError(
                        f"key 'component.{index}.file': stack shape {point.shape} "
                        f"does not match the configured latent shape {shape}"
                    )
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
    try:
        loaded = read_mask(_resolve(cfg, cfg.mask))
    except OSError as exc:
        raise ConfigError(f"key 'mask': cannot read {cfg.mask}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"key 'mask': {exc}") from exc
    if loaded.shape == Shape(shape.frames, 1, shape.height, shape.width):
        return loaded
    try:
        return downsample_mask(loaded, shape)
    except ValueError as exc:
        raise ConfigError(f"key 'mask': cannot pool {loaded.shape} to {shape}: {exc}") from exc


def build_input(cfg: ExperimentConfig, scene: ToyScene, src: ConditionBundle) -> LatentField:
    if cfg.input is None:
        return render_target(scene, src)
    try:
        z0 = read_stack(_resolve(cfg, cfg.input))
    except OSError as exc:
        raise ConfigError(f"key 'input': cannot read {cfg.input}: {exc}") from exc
    if z0.shape != build_shape(cfg):
        raise ConfigError(
            f"key 'input': stack shape {z0.shape} does not match configured shape {build_shape(cfg)}"
        )
    return z0


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
