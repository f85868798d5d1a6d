"""The benchmark in perfbench/ rebinds rcflow names at the sites that call them.

Deleting or renaming one of those sites breaks the benchmark, and only its
own slow tests would notice, so this installs both hook levels in a fresh
process. It then runs four desk-size commands on the point field and a
`generate` on a scene mixture, and checks that the traced calls still
happen where tracing rebinds them: a loop that called `euler_step` by a
name tracing does not rebind would count 0. The noise, render, split and
FFT counts also pin what each command computes once, and the mixture's
field count pins that a dataset holds its components only in its stack.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import sys

from tracing import PassRecord, Tracer, install_pass_hooks, install_tracing

tracer = Tracer()
install_pass_hooks(PassRecord())
install_tracing(tracer)

from rcflow.cli import main

work = sys.argv[1]
counts = {}
runs = [(command, command, "desk.cfg") for command in ("generate", "edit", "flowedit", "equivalence")]
runs.append(("generate-mixture", "generate", "mixture.cfg"))
for name, command, config in runs:
    start = len(tracer.spans)
    transforms = tracer.counts["latent.fft.transforms"]
    code = main([command, "--config", work + "/" + config, "--out", work + "/" + name])
    names = [span[0] for span in tracer.spans[start:]]
    counts[name] = {
        "code": code,
        "euler_step": names.count("engine.euler_step"),
        "consistency_residual": names.count("edit.consistency_residual"),
        "sample_noise": names.count("engine.sample_noise"),
        "render_target": names.count("fields.render_target"),
        "freq_decompose": names.count("latent.freq_decompose"),
        "latent_fields": names.count("latent.LatentField"),
        "fft_transforms": tracer.counts["latent.fft.transforms"] - transforms,
    }
print(json.dumps(counts))
"""


def test_benchmark_hooks_resolve(tmp_path):
    (tmp_path / "desk.cfg").write_text("steps = 20\nreuse_interval = 4\n")
    (tmp_path / "mixture.cfg").write_text("steps = 20\nfield = mixture\nmixture.components = 3\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout.splitlines()[-1])
    assert {name: c["code"] for name, c in counts.items()} == dict.fromkeys(counts, 0)
    assert {name: c["euler_step"] for name, c in counts.items()} == {
        "generate": 20, "edit": 20, "flowedit": 20, "equivalence": 40, "generate-mixture": 20,
    }
    assert counts["edit"]["consistency_residual"] == 5
    # one noise per command; the point field renders each bundle once and draws no noise
    point = {name: c for name, c in counts.items() if name != "generate-mixture"}
    assert {name: c["sample_noise"] for name, c in point.items()} == dict.fromkeys(point, 1)
    assert {name: c["render_target"] for name, c in point.items()} == {
        "generate": 1, "edit": 3, "flowedit": 3, "equivalence": 3,
    }
    # a 3-component scene mixture draws the noise and 2 perturbations, and low-passes
    # each perturbation through fields' freq_decompose with one real transform pair
    mixture = counts["generate-mixture"]
    assert (mixture["freq_decompose"], mixture["sample_noise"], mixture["fft_transforms"]) == (2, 3, 4)
    # its dataset stacks the components without building a field per row
    assert mixture["latent_fields"] == 50
