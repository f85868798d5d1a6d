"""The per-step observer shared by generate, run_edit and flowedit_run, and flat memory per step."""

import tracemalloc

import pytest

from rcflow.edit import EditConfig, run_edit
from rcflow.engine import ConditionBundle, Schedule, generate, make_uniform_schedule, sample_noise
from rcflow.fields import ToyScene, point_field, render_target
from rcflow.flowedit import FlowEditConfig, equivalence_check, flowedit_run
from rcflow.latent import Shape

SRC = ConditionBundle(illum_params=(1.0, 0.0, 0.0, 0.2), agnostic_params=(5.0, 3.0, 0.5))
TAR = ConditionBundle(illum_params=(2.0, 0.3, 0.8, 0.6), agnostic_params=(5.0, 3.0, 0.5))


def drivers(shape, r):
    """Each driver as run(schedule, on_step) -> output, on one shared case.

    equivalence_check walks two trajectories and takes no observer; it
    returns its report.
    """
    scene = ToyScene(shape)
    field = point_field(scene)
    z0 = render_target(scene, SRC)
    eps = sample_noise(1, shape)
    mask = scene.true_mask(SRC.agnostic_params)
    return {
        "generate": lambda schedule, on_step=None: generate(field, TAR, eps, schedule, on_step)[0],
        "run_edit": lambda schedule, on_step=None: run_edit(
            field, z0, SRC, TAR, eps, EditConfig(schedule, mask, reuse_interval=r), on_step
        ).output,
        "flowedit_run": lambda schedule, on_step=None: flowedit_run(
            field, z0, SRC, TAR, FlowEditConfig(schedule, seed=1), on_step
        )[0],
        "equivalence_check": lambda schedule: equivalence_check(field, z0, SRC, TAR, schedule, 1, 1e-6),
    }


@pytest.mark.parametrize("name", ["generate", "run_edit", "flowedit_run"])
def test_observer_contract(name):
    run = drivers(Shape(2, 1, 16, 16), r=3)[name]
    schedule = Schedule([0.0, 0.05, 0.3, 0.31, 0.7, 1.0])
    seen = []
    output = run(schedule, lambda t, z: seen.append((t, z)))

    ts = [t for t, _ in seen]
    assert len(seen) == schedule.steps + 1
    assert ts[0] == 1.0 and ts[-1] == 0.0
    assert all(a > b for a, b in zip(ts, ts[1:]))
    assert ts == schedule.knots[::-1].tolist()
    assert seen[-1][1].data.tobytes() == output.data.tobytes()
    assert run(schedule).data.tobytes() == output.data.tobytes()


def _peak_bytes(run, steps):
    schedule = make_uniform_schedule(steps)
    tracemalloc.start()
    try:
        run(schedule)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["run_edit", "flowedit_run", "equivalence_check"])
def test_memory_does_not_grow_with_steps(name):
    shape = Shape(2, 1, 32, 32)
    latent_bytes = shape.count * 8
    run = drivers(shape, r=1)[name]
    run(make_uniform_schedule(2))  # first-call allocations (lazy caches) do not scale with steps
    short = _peak_bytes(run, 10)
    long = _peak_bytes(run, 80)
    assert long <= short + 4 * latent_bytes, (short / latent_bytes, long / latent_bytes)
