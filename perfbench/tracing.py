"""Hooks the benchmark installs around rcflow's public functions, from outside.

Two levels, both installed by rebinding names at the import sites their
callers use, so rcflow itself is unchanged:

* `install_pass_hooks` is all an untraced pass carries. It counts field
  evaluations on the field `build_field` returns, stamps the first one (the
  end of set-up) and times the top-level compute calls.
* `install_tracing` adds a span around every public call into each module,
  counts numpy FFTs, RNG values and stack bytes, and takes a tracemalloc
  peak per compute call. Only the traced run installs it.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import Counter


def now() -> float:
    # CLOCK_MONOTONIC is shared by every process, so a child's stamps compare
    # directly with the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(BaseException):
    """Raised at the first field evaluation of a set-up probe.

    A BaseException, so the CLI's error handlers let it through.
    """


class PassRecord:
    """What an untraced pass measures inside one command's process."""

    def __init__(self, stop_at_first_eval: bool = False):
        self.stop_at_first_eval = stop_at_first_eval
        self.first_eval: float | None = None
        self.nfe = 0
        self.compute_s = 0.0
        self.steps = 0

    def as_dict(self) -> dict:
        return {
            "first_eval": self.first_eval,
            "nfe": self.nfe,
            "compute_s": self.compute_s,
            "steps": self.steps,
        }


# steps each compute call integrates, read from its arguments
_COMPUTE_STEPS = {
    "run_edit": lambda args: args[5].schedule.steps,
    "flowedit_run": lambda args: args[4].schedule.steps,
    "equivalence_check": lambda args: 2 * args[4].steps,
}


def install_pass_hooks(record: PassRecord) -> None:
    import rcflow.cli as cli
    import rcflow.config as config

    build_field = config.build_field

    def counted_build_field(*args, **kwargs):
        field = build_field(*args, **kwargs)
        evaluate = field.evaluate

        def counted_evaluate(z, t, c):
            if record.first_eval is None:
                record.first_eval = now()
                if record.stop_at_first_eval:
                    raise SetupDone
            record.nfe += 1
            return evaluate(z, t, c)

        field.evaluate = counted_evaluate
        return field

    config.build_field = counted_build_field

    for name, steps_of in _COMPUTE_STEPS.items():
        setattr(cli, name, _timed(getattr(cli, name), steps_of, record))


def _timed(fn, steps_of, record: PassRecord):
    def timed(*args, **kwargs):
        start = now()
        result = fn(*args, **kwargs)
        record.compute_s += now() - start
        record.steps += steps_of(args)
        return result

    return timed


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []
        self._alloc: list[list[int]] = []  # [traced bytes at entry, peak above it]

    def call(self, name: str, fn, args, kwargs, *, alloc: bool = False):
        index = len(self.spans)
        self.spans.append([name, now(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        if alloc:
            self._alloc_enter()
        try:
            return fn(*args, **kwargs)
        finally:
            if alloc:
                peak = self._alloc_exit() / 2**20
                self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
            self._open.pop()
            self.spans[index][2] = now()

    def wrap(self, name: str, fn, *, alloc: bool = False, on_return=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, alloc=alloc)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    # tracemalloc runs only inside compute calls, so it does not slow the
    # set-up and output layers. It keeps one peak, so a nested compute call
    # folds the peak so far into every open frame before resetting it.
    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._alloc:
            frame[1] = max(frame[1], peak - frame[0])
        return current

    def _alloc_enter(self) -> None:
        if not self._alloc:
            tracemalloc.start()
        current = self._fold_peak()
        tracemalloc.reset_peak()
        self._alloc.append([current, 0])

    def _alloc_exit(self) -> int:
        self._fold_peak()
        peak = self._alloc.pop()[1]
        if not self._alloc:
            tracemalloc.stop()
        return peak

    def as_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "peaks": self.peaks}


_FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)


def install_tracing(tracer: Tracer) -> None:
    """Wrap each module's public functions where their callers look them up."""
    import numpy as np

    import rcflow.cli as cli
    import rcflow.config as config
    import rcflow.edit as edit
    import rcflow.engine as engine
    import rcflow.fields as fields
    import rcflow.flowedit as flowedit
    import rcflow.latent as latent
    import rcflow.stackio as stackio

    def count(key, amount_of):
        def on_return(args, result):
            tracer.counts[key] += amount_of(args, result)

        return on_return

    def file_bytes(key):
        return count(key, lambda args, result: os.path.getsize(args[0]))

    sites = (
        ("latent.hf_transfer", (edit,), "hf_transfer", {}),
        ("latent.freq_decompose", (latent, fields), "freq_decompose", {}),
        ("latent.lerp_noise", (edit, flowedit), "lerp_noise", {}),
        ("fields.render_target", (cli, config, fields), "render_target", {}),
        (
            "rng.standard_normal",
            (engine,),
            "standard_normal",
            {"on_return": count("rng.standard_normal.values", lambda args, result: len(result))},
        ),
        ("engine.sample_noise", (cli, flowedit, fields), "sample_noise", {}),
        ("engine.euler_step", (edit, flowedit, engine), "euler_step", {}),
        ("edit.run_edit", (cli, flowedit), "run_edit", {"alloc": True}),
        ("edit.consistency_residual", (edit,), "consistency_residual", {}),
        ("flowedit.flowedit_run", (cli, flowedit), "flowedit_run", {"alloc": True}),
        ("flowedit.equivalence_check", (cli,), "equivalence_check", {"alloc": True}),
        ("stackio.write_stack", (cli,), "write_stack", {"on_return": file_bytes("stackio.write_stack.bytes")}),
        ("stackio.export_frames", (cli,), "export_frames", {}),
        # config reads input stacks directly, masks through stackio.read_mask
        ("stackio.read_stack", (config, stackio), "read_stack", {"on_return": file_bytes("stackio.read_stack.bytes")}),
        ("config.load_config", (config,), "load_config", {}),
        ("config.build_field", (config,), "build_field", {}),
        ("config.build_mask", (config,), "build_mask", {}),
        ("config.build_input", (config,), "build_input", {}),
        ("metrics.fg_structure_score", (cli,), "fg_structure_score", {}),
    )
    for name, modules, attr, options in sites:
        for module in modules:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), **options))

    latent.LatentField.__init__ = tracer.wrap("latent.LatentField", latent.LatentField.__init__)

    def fft_counter(fn):
        def counted(a, *args, **kwargs):
            tracer.counts["latent.fft.transforms"] += 1
            tracer.counts["latent.fft.values"] += int(np.size(a))
            return fn(a, *args, **kwargs)

        return counted

    for attr in _FFT_FUNCTIONS:
        setattr(np.fft, attr, fft_counter(getattr(np.fft, attr)))

    # evaluations are split by the role of the bundle they are asked for
    roles: dict[int, str] = {}
    build_bundles = config.build_bundles

    def recorded_bundles(cfg):
        src, tar = build_bundles(cfg)
        roles[id(src)], roles[id(tar)] = "src", "tar"
        return src, tar

    config.build_bundles = recorded_bundles
    build_field = config.build_field

    def role_traced_field(*args, **kwargs):
        field = build_field(*args, **kwargs)
        evaluate = field.evaluate

        def traced_evaluate(z, t, c):
            name = f"fields.evaluate.{roles.get(id(c), 'other')}"
            return tracer.call(name, evaluate, (z, t, c), {})

        field.evaluate = traced_evaluate
        return field

    config.build_field = role_traced_field
