"""Acceptance gate: every release criterion at its committed tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Tolerances are fixed here, not configurable; the calibration
constants for criteria 7 and 8 were measured once on the committed
relighting configuration below and are recorded next to the assertions.
"""

import math

import numpy as np

from rcflow.cli import main
from rcflow.edit import EditConfig, run_edit
from rcflow.engine import (
    ConditionBundle,
    VelocityField,
    generate,
    make_uniform_schedule,
    sample_noise,
)
from rcflow.fields import ToyScene, constant_field, point_field, render_target, scene_mixture_field
from rcflow.flowedit import FlowEditConfig, NoiseMode, equivalence_check, flowedit_run
from rcflow.latent import LatentField, Mask, Shape, freq_decompose, hf_transfer, rel_error
from rcflow.metrics import bg_change_rms, fg_structure_score, rms_gap
from rcflow.rng import derive_seed, uniform_open
from rcflow.stackio import parse_stack, format_stack

SHAPE = Shape(2, 1, 16, 16)
T_STANDARD = 50
SRC = ConditionBundle(illum_params=(1.0, 0.0, 0.0, 0.2), agnostic_params=(5.0, 3.0, 0.5))
TAR = ConditionBundle(illum_params=(2.0, 0.3, 0.8, 0.6), agnostic_params=(5.0, 3.0, 0.5))

# committed relighting configuration shared by criteria 7 and 8
CAL_SCENE_THRESHOLD = 0.3
CAL_MIXTURE = dict(components=3, spread=0.25, seed=1)
CAL_EPS_SEED = 7


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def _scene():
    return ToyScene(SHAPE, mask_threshold=CAL_SCENE_THRESHOLD)


def _edit_cfg(mask, r=1, lam=0.5, rho=0.8, hf=True, steps=T_STANDARD):
    return EditConfig(
        schedule=make_uniform_schedule(steps),
        mask=mask,
        reuse_interval=r,
        hf_lambda=lam,
        hf_rho=rho,
        hf_enabled=hf,
    )


def test_01_stability_under_identity():
    scene = _scene()
    z0_scene = render_target(scene, SRC)
    fields = {
        "constant": (constant_field(sample_noise(101, SHAPE)), sample_noise(102, SHAPE)),
        "point": (point_field(scene), z0_scene),
        "mixture": (scene_mixture_field(scene, **CAL_MIXTURE), z0_scene),
    }
    worst = 0.0
    for name, (field, z0) in fields.items():
        for seed in (1, 2, 3, 4, 5):
            eps = sample_noise(seed, SHAPE)
            for lam in (0.0, 0.5):
                report = run_edit(
                    field, z0, SRC, SRC, eps, _edit_cfg(Mask.ones(SHAPE), r=1, lam=lam)
                )
                error = rel_error(report.output, z0)
                assert error <= 1e-5, f"{name} seed={seed} lambda={lam}: {error}"
                worst = max(worst, error)
    _report(1, f"identity holds for 3 fields x 5 seeds x 2 lambdas, worst {worst:.3e} <= 1e-5")


def test_02_fixed_noise_equivalence():
    scene = _scene()
    field = scene_mixture_field(scene, **CAL_MIXTURE)
    z0 = render_target(scene, SRC)
    schedule = make_uniform_schedule(20)
    worst = 0.0
    for seed in (3, 4, 5):
        report = equivalence_check(field, z0, SRC, TAR, schedule, seed, 1e-6)
        assert report.passed, f"seed={seed}: max deviation {report.max_deviation}"
        worst = max(worst, report.max_deviation)
    _report(2, f"per-step trajectories agree over 3 seeds, worst {worst:.3e} <= 1e-6")


def test_03_nfe_accounting():
    scene = _scene()
    field = scene_mixture_field(scene, **CAL_MIXTURE)
    z0 = render_target(scene, SRC)
    eps = sample_noise(CAL_EPS_SEED, SHAPE)
    mask = scene.true_mask(SRC.agnostic_params)
    observed = {}
    for r in (1, 2, 5, 10):
        report = run_edit(field, z0, SRC, TAR, eps, _edit_cfg(mask, r=r))
        observed[r] = report.nfe
        assert report.residual_recomputations == math.ceil(T_STANDARD / r)
    assert observed == {1: 100, 2: 75, 5: 60, 10: 55}

    fe_observed = {}
    for n in (1, 2):
        config = FlowEditConfig(
            schedule=make_uniform_schedule(T_STANDARD),
            noise_mode=NoiseMode.FRESH_PER_STEP,
            n_avg=n,
            seed=CAL_EPS_SEED,
        )
        _, fe_observed[n] = flowedit_run(field, z0, SRC, TAR, config)
    assert fe_observed == {1: 100, 2: 200}
    _report(3, f"edit nfe {observed} and flowedit nfe {fe_observed} match exactly")


def test_04_frequency_partition():
    worst_recon = 0.0
    worst_self = 0.0
    for index in range(100):
        stream = derive_seed(400, index)
        f = 1 + index % 2
        c = 1 + index % 3
        h = (4, 8, 16, 7)[index % 4]
        w = (8, 16, 5, 4)[(index // 4) % 4]
        count = f * c * h * w
        values = (uniform_open(stream, count) * 4.0 - 2.0).reshape(f, c, h, w)
        field = LatentField(values)
        rho = (index % 11) / 10.0
        split = freq_decompose(field, rho)
        recon = np.max(np.abs(split.low.data + split.high.data - field.data))
        bound = 1e-6 * (1.0 + field.max_abs())
        assert recon <= bound, f"field {index}: reconstruction {recon} > {bound}"
        worst_recon = max(worst_recon, recon / bound)

        mask = Mask.ones(field.shape)
        self_transfer = hf_transfer(field, field, mask, 0.7, rho)
        err = rel_error(self_transfer, field)
        assert err <= 1e-6
        worst_self = max(worst_self, err)

        assert hf_transfer(field, field, mask, 0.0, rho) is field
    _report(
        4,
        f"100 fields: reconstruction within bound (worst {worst_recon:.2e} of it), "
        f"self-transfer worst {worst_self:.3e} <= 1e-6, lambda=0 bitwise identity",
    )


def test_05_mask_purity():
    scene = _scene()
    field = scene_mixture_field(scene, **CAL_MIXTURE)
    z0 = render_target(scene, SRC)
    schedule = make_uniform_schedule(T_STANDARD)
    for seed in (11, 12, 13):
        eps = sample_noise(seed, SHAPE)
        report = run_edit(
            field, z0, SRC, TAR, eps, _edit_cfg(Mask.zeros(SHAPE), r=1, lam=0.0)
        )
        plain, _ = generate(field, TAR, eps, schedule)
        assert report.output.data.tobytes() == plain.data.tobytes(), f"seed={seed}"
    _report(5, "masked-out edit byte-equals pure target generation for 3 seeds")


def test_06_closed_form_constant_edit():
    for seed in (21, 22, 23):
        a = sample_noise(derive_seed(600, seed, 0), SHAPE)
        b = sample_noise(derive_seed(600, seed, 1), SHAPE)
        z0 = sample_noise(derive_seed(600, seed, 2), SHAPE)
        eps = sample_noise(derive_seed(600, seed, 3), SHAPE)

        class PairField(VelocityField):
            def evaluate(self, z, t, c):
                return a if c == SRC else b

        report = run_edit(
            PairField(), z0, SRC, TAR, eps, _edit_cfg(Mask.ones(SHAPE), r=1, lam=0.0, hf=False)
        )
        expected = LatentField(z0.data + (b.data - a.data))
        err = rel_error(report.output, expected)
        assert err <= 1e-6, f"seed={seed}: {err}"
    _report(6, "constant-pair edits land on z0 + (b - a) within 1e-6 for 3 instances")


def test_07_reuse_degradation():
    # calibration (recorded 2026-08-08, this configuration):
    #   RMS(edit(r=1) - z0)        = 0.5964519539532067
    #   RMS(edit(r=10) - edit(r=1)) = 6.783170738103159e-15
    #   ratio                       = 1.137e-14
    scene = _scene()
    field = scene_mixture_field(scene, **CAL_MIXTURE)
    z0 = render_target(scene, SRC)
    mask = scene.true_mask(SRC.agnostic_params)
    eps = sample_noise(CAL_EPS_SEED, SHAPE)
    out_r1 = run_edit(field, z0, SRC, TAR, eps, _edit_cfg(mask, r=1)).output
    out_r10 = run_edit(field, z0, SRC, TAR, eps, _edit_cfg(mask, r=10)).output
    edit_magnitude = rms_gap(out_r1, z0)
    gap = rms_gap(out_r10, out_r1)
    assert edit_magnitude > 0.0
    assert gap <= 0.1 * edit_magnitude, f"gap {gap} vs limit {0.1 * edit_magnitude}"
    _report(7, f"reuse gap {gap:.3e} <= 0.1 x edit magnitude {edit_magnitude:.3e}")


def test_08_toy_directional_change():
    # calibration (recorded 2026-08-08, this configuration):
    #   fg_structure_score(r=1)    = 0.9510312569620867
    #   bg_change_rms(r=1)         = 0.3999999999999999
    #   identity-run bg_change_rms = 1.0223651286329797e-16
    scene = _scene()
    field = scene_mixture_field(scene, **CAL_MIXTURE)
    z0 = render_target(scene, SRC)
    mask = scene.true_mask(SRC.agnostic_params)
    eps = sample_noise(CAL_EPS_SEED, SHAPE)
    assert SRC.agnostic_params == TAR.agnostic_params  # illum-only change

    edited = run_edit(field, z0, SRC, TAR, eps, _edit_cfg(mask, r=1)).output
    fg = fg_structure_score(edited, z0, mask)
    bg = bg_change_rms(edited, z0, mask)

    identity = run_edit(field, z0, SRC, SRC, eps, _edit_cfg(Mask.ones(SHAPE), r=1)).output
    bg_identity = bg_change_rms(identity, z0, mask)

    assert fg >= 0.9, f"fg_structure_score {fg}"
    assert bg >= 5.0 * bg_identity, f"bg change {bg} vs identity {bg_identity}"
    _report(
        8,
        f"fg_structure {fg:.4f} >= 0.9 and bg change {bg:.3f} >= 5 x identity {bg_identity:.2e}",
    )


ACCEPTANCE_CONFIG = """\
seed = 7
frames = 2
channels = 1
height = 16
width = 16
steps = 20
reuse_interval = 5
hf_lambda = 0.5
hf_rho = 0.8
field = mixture
mask = scene
scene.mask_threshold = 0.3
mixture.components = 3
mixture.spread = 0.25
mixture.seed = 1
src.illum = 1.0, 0.0, 0.0, 0.2
src.agnostic = 5, 3, 0.5
tar.illum = 2.0, 0.3, 0.8, 0.6
tar.agnostic = 5, 3, 0.5
sweep_r = 1, 2, 5
"""


def test_09_determinism_and_format(tmp_path):
    config = tmp_path / "acceptance.cfg"
    config.write_text(ACCEPTANCE_CONFIG)
    for command in ("generate", "edit", "flowedit", "equivalence", "sweep-reuse"):
        first = tmp_path / f"{command}-a"
        second = tmp_path / f"{command}-b"
        code_a = main([command, "--config", str(config), "--out", str(first)])
        code_b = main([command, "--config", str(config), "--out", str(second)])
        assert code_a == 0 and code_b == 0, f"{command} exited {code_a}/{code_b}"
        files_a = {p.name: p.read_bytes() for p in sorted(first.iterdir())}
        files_b = {p.name: p.read_bytes() for p in sorted(second.iterdir())}
        assert files_a and files_a == files_b, f"{command} re-run differs"

    values = (uniform_open(900, 1000) * 2.0 - 1.0) * 1e6
    field = LatentField(values.reshape(1, 1, 25, 40))
    loaded = parse_stack(format_stack(field))
    rel = np.abs(loaded.data - field.data) / np.maximum(1.0, np.abs(field.data))
    assert rel.max() <= 1e-6
    _report(9, "all 5 commands re-run byte-identical; 1000-value round-trip <= 1e-6 relative")
