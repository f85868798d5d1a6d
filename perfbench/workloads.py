"""The three benchmark workloads: configs, seeded inputs and the counts the gate expects.

Every workload runs at T=50. Its seed picks the noise seed, the scene's
pattern seed and (for the mixture) the perturbation seed, and for
`flowedit-fresh-io` it also generates the input render and the mask. rcflow
sees only the files written here.

`full` is the size the benchmark measures; `desk` (2x1x16x16) is the smoke
size the benchmark's own tests run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

STEPS = 50


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload pass, with what its gate expects.

    nfe is the exact number of field evaluations; steps the Euler steps its
    compute call takes (equivalence_check runs two 50-step trajectories).
    """

    name: str
    nfe: int
    steps: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: dict[str, tuple[int, int, int, int]]
    body: str
    commands: tuple[Command, ...]
    inputs: bool = False

    @property
    def nfe(self) -> int:
        return sum(c.nfe for c in self.commands)

    @property
    def steps(self) -> int:
        return sum(c.steps for c in self.commands)

    def prepare(self, work: Path, seed: int, size: str) -> Path:
        """Write the config (and any input stacks) for `seed` into `work`."""
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        noise_seed = int(rng.integers(0, 2**63))
        pattern_seed = int(rng.integers(1, 10_000))
        mixture_seed = int(rng.integers(1, 10_000))
        f, c, h, w = self.shapes[size]
        text = (
            f"frames = {f}\nchannels = {c}\nheight = {h}\nwidth = {w}\n"
            f"steps = {STEPS}\nseed = {noise_seed}\n"
            f"src.agnostic = {pattern_seed} 3 0.5\ntar.agnostic = {pattern_seed} 3 0.5\n"
            + self.body.format(mixture_seed=mixture_seed)
        )
        if self.inputs:
            _write_inputs(work, rng, (f, c, h, w))
        config = work / "bench.cfg"
        config.write_text(text, encoding="ascii")
        return config


def _write_fpstack(path: Path, data: np.ndarray) -> None:
    """FPSTACK 1 text stack, one pixel row per line, 9 significant digits."""
    f, c, h, w = data.shape
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"FPSTACK 1 {f} {c} {h} {w}\n")
        np.savetxt(handle, data.reshape(-1, w), fmt="%.9g")


def _write_inputs(work: Path, rng: np.random.Generator, shape: tuple[int, int, int, int]) -> None:
    """A smooth seeded render, and a binary ellipse mask at twice its resolution."""
    f, c, h, w = shape
    ys = np.linspace(-1.0, 1.0, h)[:, None]
    xs = np.linspace(-1.0, 1.0, w)[None, :]
    freq = rng.uniform(0.5, 3.0, size=(f, c, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(f, c))
    render = np.sin(freq[..., 0, None, None] * np.pi * ys + phase[..., None, None]) * np.cos(
        freq[..., 1, None, None] * np.pi * xs
    )
    render = render + 0.05 * rng.standard_normal(shape)
    _write_fpstack(work / "input.fps", render)

    my = np.linspace(-1.0, 1.0, 2 * h)[:, None]
    mx = np.linspace(-1.0, 1.0, 2 * w)[None, :]
    centre = rng.uniform(-0.3, 0.3, size=(f, 2))
    radius = rng.uniform(0.3, 0.7, size=(f, 2))
    inside = ((my - centre[:, 0, None, None]) / radius[:, 0, None, None]) ** 2 + (
        (mx - centre[:, 1, None, None]) / radius[:, 1, None, None]
    ) ** 2 <= 1.0
    _write_fpstack(work / "mask.fps", inside[:, None].astype(np.float64))


EDIT_HF_LARGE = Workload(
    name="edit-hf-large",
    why="headline masked edit with detail transfer at 16x4x128x128: FFTs in rcflow.latent and "
    "the 1M-value output write dominate",
    shapes={"full": (16, 4, 128, 128), "desk": (2, 1, 16, 16)},
    body="field = point\nmask = scene\nreuse_interval = 10\nhf_lambda = 0.5\nhf_rho = 0.8\n",
    commands=(Command("edit", nfe=STEPS + 5, steps=STEPS),),
)

MIXTURE_REUSE_MID = Workload(
    name="mixture-reuse-mid",
    why="residual-reuse sweep and equivalence at 8x3x64x64 on an 8-component mixture: field "
    "evaluation dominates, no detail transfer or stack I/O",
    shapes={"full": (8, 3, 64, 64), "desk": (2, 1, 16, 16)},
    body=(
        "field = mixture\nmixture.components = 8\nmixture.seed = {mixture_seed}\n"
        "mask = scene\nhf_lambda = 0\nsweep_r = 1 2 5 10\nequiv_tol = 1e-6\n"
    ),
    commands=(
        # r = 1, 2, 5, 10: 100 + 75 + 60 + 55 evaluations
        Command("sweep-reuse", nfe=290, steps=4 * STEPS),
        # fixed-noise flowedit (2 per step) plus run_edit at r=1 (2 per step)
        Command("equivalence", nfe=4 * STEPS, steps=2 * STEPS),
    ),
)

FLOWEDIT_FRESH_IO = Workload(
    name="flowedit-fresh-io",
    why="fresh-noise reference editor at 16x4x128x128 reading seeded input stacks: splitmix64 "
    "noise dominates, no FFT",
    shapes={"full": (16, 4, 128, 128), "desk": (2, 1, 16, 16)},
    body="field = point\nfe_noise = fresh\nfe_navg = 2\ninput = input.fps\nmask = mask.fps\n",
    commands=(Command("flowedit", nfe=4 * STEPS, steps=STEPS),),
    inputs=True,
)

WORKLOADS = {w.name: w for w in (EDIT_HF_LARGE, MIXTURE_REUSE_MID, FLOWEDIT_FRESH_IO)}
SIZES = ("full", "desk")
