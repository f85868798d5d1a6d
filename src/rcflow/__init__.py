"""Residual-corrected flow editing engine with analytic velocity fields."""

from .edit import (
    EditConfig,
    EditReport,
    consistency_residual,
    run_edit,
)
from .engine import (
    ConditionBundle,
    Schedule,
    StepObserver,
    VelocityField,
    euler_step,
    generate,
    make_uniform_schedule,
    sample_noise,
)
from .errors import ConfigError, NumericError, ShapeMismatchError
from .fields import (
    MixtureDataset,
    ToyScene,
    constant_field,
    mixture_field,
    point_field,
    render_target,
    scene_mixture_field,
)
from .flowedit import (
    EquivalenceReport,
    FlowEditConfig,
    NoiseMode,
    equivalence_check,
    flowedit_run,
)
from .latent import (
    FreqSplit,
    LatentField,
    Mask,
    Shape,
    downsample_mask,
    freq_decompose,
    hf_transfer,
    lerp_noise,
    rel_error,
)

__all__ = [
    "ConditionBundle",
    "ConfigError",
    "EditConfig",
    "EditReport",
    "EquivalenceReport",
    "FlowEditConfig",
    "FreqSplit",
    "LatentField",
    "Mask",
    "MixtureDataset",
    "NoiseMode",
    "NumericError",
    "Schedule",
    "Shape",
    "ShapeMismatchError",
    "StepObserver",
    "ToyScene",
    "VelocityField",
    "consistency_residual",
    "constant_field",
    "downsample_mask",
    "equivalence_check",
    "euler_step",
    "flowedit_run",
    "freq_decompose",
    "generate",
    "hf_transfer",
    "lerp_noise",
    "make_uniform_schedule",
    "mixture_field",
    "point_field",
    "rel_error",
    "render_target",
    "run_edit",
    "sample_noise",
    "scene_mixture_field",
]

__version__ = "0.1.0"
