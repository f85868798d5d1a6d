import hashlib
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcflow.rng as rng
from rcflow.engine import sample_noise
from rcflow.latent import LatentField, Mask, Shape, hf_transfer
from rcflow.rng import QueuedDraw, derive_seed, random_words, run_chunks, standard_normal, uniform_open

# frozen stream head for seed 1; guards the cross-platform bit contract
SEED1_WORDS = [
    10451216379200822465,
    13757245211066428519,
    17911839290282890590,
    8196980753821780235,
    8195237237126968761,
]

# moments of standard_normal(seed=1, 4096) measured once and locked
SEED1_MEAN = 0.03138332634202502
SEED1_VAR = 1.0251770607472457

# sha256 of standard_normal(1, 2**20 + 3).tobytes(), from the one-shot generator
SEED1_LARGE_SHA256 = "30ccd25a7e956345a937c41f442c95a8695b5cac86b637e810dd39cd9d4cb3f1"


def one_shot_standard_normal(seed, count):
    """The reference generator: one Box-Muller pass over whole-draw temporaries."""
    pairs = (count + 1) // 2
    u = uniform_open(seed, 2 * pairs)
    u1, u2 = u[:pairs], u[pairs:]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def _boundary_counts():
    """Counts whose pairs sit at a block or chunk boundary, and one off it, for 1 to 4 chunks."""
    block = rng._BLOCK_PAIRS
    edges = {block, 2 * block, 3 * block, 6 * block, 3 * rng._CHUNK_BLOCKS * block}
    pairs = {p + d for p in edges for d in (-1, 0, 1)}
    return sorted({2 * p - odd for p in pairs for odd in (0, 1)})


BOUNDARY_COUNTS = _boundary_counts()
SEEDS = st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1))


def test_known_answer_words():
    assert random_words(1, 5).tolist() == SEED1_WORDS


def test_uniforms_strictly_inside_unit_interval():
    u = uniform_open(42, 10_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_normal_determinism_and_distinctness():
    a = standard_normal(1, 512)
    b = standard_normal(1, 512)
    c = standard_normal(2, 512)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normal_moments_match_frozen_run():
    z = standard_normal(1, 64 * 64)
    assert z.mean() == SEED1_MEAN
    assert z.var() == SEED1_VAR
    # law-of-large-numbers bounds the frozen values must themselves satisfy
    assert abs(SEED1_MEAN) < 0.05
    assert abs(SEED1_VAR - 1.0) < 0.1


def test_odd_count_truncates_pair():
    full = standard_normal(9, 8)
    odd = standard_normal(9, 7)
    assert np.array_equal(odd, full[:7])


def test_derive_seed_separates_streams():
    seen = {derive_seed(5, step, draw) for step in range(20) for draw in range(4)}
    assert len(seen) == 80
    assert derive_seed(5, 3, 1) == derive_seed(5, 3, 1)
    assert derive_seed(5, 3, 1) != derive_seed(6, 3, 1)


@settings(deadline=None)
@given(seed=SEEDS, count=st.one_of(st.integers(0, 200), st.sampled_from(BOUNDARY_COUNTS)))
def test_normal_matches_one_shot_reference(seed, count):
    assert standard_normal(seed, count).tobytes() == one_shot_standard_normal(seed, count).tobytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_normal_bits_do_not_depend_on_worker_count(monkeypatch, workers):
    monkeypatch.setattr(rng, "_WORKERS", workers)
    for seed in (0, 2**64 - 1, 0x0123456789ABCDEF):
        for count in (BOUNDARY_COUNTS[0], BOUNDARY_COUNTS[-1], 100_003):
            assert standard_normal(seed, count).tobytes() == one_shot_standard_normal(seed, count).tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("stop", [0, 1, 2, 5])
def test_run_chunks_covers_each_index_once(monkeypatch, workers, stop):
    monkeypatch.setattr(rng, "_WORKERS", workers)
    ranges = []
    run_chunks(lambda lo, hi: ranges.append((lo, hi)), stop)
    assert sorted(i for lo, hi in ranges for i in range(lo, hi)) == list(range(stop))
    assert len(ranges) == max(1, min(workers, stop))


@pytest.mark.parametrize("failing", [0, 1])
def test_run_chunks_raises_only_after_every_range_finished(monkeypatch, failing):
    monkeypatch.setattr(rng, "_WORKERS", 3)
    finished = []

    def task(lo, hi):
        if lo == failing:
            raise ValueError(f"range {lo}")
        time.sleep(0.05 * lo)  # the last range on the pool finishes last
        finished.append(lo)

    with pytest.raises(ValueError, match=f"range {failing}"):
        run_chunks(task, 3)
    assert sorted(finished) == [lo for lo in range(3) if lo != failing]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_queued_draw_bits_equal_standard_normal(monkeypatch, workers):
    monkeypatch.setattr(rng, "_WORKERS", workers)
    for seed in (0, 2**64 - 1, 0x0123456789ABCDEF):
        for count in (0, 1, BOUNDARY_COUNTS[0], BOUNDARY_COUNTS[-1], 100_003):
            assert QueuedDraw(seed, count).result().tobytes() == one_shot_standard_normal(seed, count).tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_queued_draw_runs_the_chunks_no_pool_thread_claimed(monkeypatch, workers):
    # every pool thread holds a blocker until `gate` opens, and a thread the pool starts later
    # takes a queued blocker first: result() has to claim and fill every chunk itself
    monkeypatch.setattr(rng, "_WORKERS", workers)
    counts = (1, 100_003, 2 * 4 * rng._CHUNK_BLOCKS * rng._BLOCK_PAIRS + 1)
    gate = threading.Event()
    blockers = [rng._POOL.executor.submit(gate.wait, 60) for _ in range(rng._POOL.threads)]
    results = []

    def draw():
        results.extend(QueuedDraw(seed, count).result().tobytes() for seed, count in enumerate(counts))

    try:
        # a daemon caller, so a draw left waiting fails this test instead of hanging the run
        caller = threading.Thread(target=draw, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
    finally:
        gate.set()
        wait(blockers, timeout=60)
    assert results == [one_shot_standard_normal(seed, count).tobytes() for seed, count in enumerate(counts)]


def test_pool_tasks_may_wait_on_pool_work():
    # more pool tasks than pool threads, each waiting on a draw and on ranges queued behind the
    # others: each one runs its own pieces that no pool thread has claimed
    count = 200_000
    results = []

    def task(seed):
        ranges = []
        values = standard_normal(seed, count).tobytes()
        run_chunks(lambda lo, hi: ranges.append((lo, hi)), 5)
        return values, sorted(ranges)

    def submit_and_collect():
        futures = [rng._POOL.executor.submit(task, seed) for seed in range(rng._WORKERS + 1)]
        results.extend(future.result() for future in futures)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # a daemon caller, so a deadlock fails this test instead of hanging the whole test run
        caller = threading.Thread(target=submit_and_collect, daemon=True)
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    chunks = max(1, min(rng._WORKERS, 5))
    ranges = [(5 * k // chunks, 5 * (k + 1) // chunks) for k in range(chunks)]
    assert results == [(one_shot_standard_normal(seed, count).tobytes(), ranges) for seed in range(rng._WORKERS + 1)]


def _word_seed(word, counter):
    """A seed whose splitmix64 stream holds `word` at `counter`: the finalizer inverted."""
    full = 2**64

    def unshift(y, shift):
        x = y
        for _ in range(64 // shift):
            x = y ^ (x >> shift)
        return x

    x = unshift(word, 31)
    x = unshift(x * pow(int(rng._MIX2), -1, full) % full, 27)
    x = unshift(x * pow(int(rng._MIX1), -1, full) % full, 30)
    seed = (x - counter * int(rng.GAMMA)) % full
    assert random_words(seed, counter)[-1] == word
    return seed


@pytest.mark.parametrize("counter", [1, 2])
@pytest.mark.parametrize("word", [0, 2**64 - 1])
def test_noise_is_finite_at_the_extreme_uniforms(word, counter):
    # a 2-value draw takes u1 from counter 1 and u2 from counter 2; word 0 gives the uniform
    # 2**-53 and word 2**64 - 1 gives 1 - 2**-53, so the radius reaches its largest value
    # sqrt(-2 ln 2**-53) = sqrt(106 ln 2); sample_noise skips the finiteness pass on this bound
    seed = _word_seed(word, counter)
    bound = np.sqrt(-2.0 * np.log(2.0**-53))
    assert bound == np.sqrt(106 * np.log(2.0)) < 8.58
    noise = sample_noise(seed, Shape(1, 1, 1, 2))
    values = noise.data.ravel()
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) <= bound
    if (word, counter) == (0, 1):
        assert np.hypot(*values) == pytest.approx(bound, rel=1e-15)
    assert not noise.data.flags.writeable
    assert noise == LatentField(one_shot_standard_normal(seed, 2).reshape(1, 1, 1, 2))


def test_queued_draw_shares_the_pool_with_run_chunks(monkeypatch):
    # the draw's chunks hold every pool thread while hf_transfer queues its ranges behind them
    monkeypatch.setattr(rng, "_WORKERS", 3)
    count = 2 * 3 * rng._BLOCK_PAIRS + 1
    shape = (5, 2, 8, 8)
    a, b = (LatentField(one_shot_standard_normal(seed, 640).reshape(shape)) for seed in (1, 2))
    mask = Mask(np.full((5, 1, 8, 8), 0.5))
    expected = hf_transfer(a, b, mask, 0.7, 0.6).data.tobytes()

    results = []

    def draw_around_transfer():
        queued = QueuedDraw(7, count)
        transferred = hf_transfer(a, b, mask, 0.7, 0.6).data.tobytes()
        results.append((queued.result().tobytes(), transferred))

    # a daemon caller, so a deadlock fails this test instead of hanging the whole test run
    caller = threading.Thread(target=draw_around_transfer, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert results == [(one_shot_standard_normal(7, count).tobytes(), expected)]


def test_concurrent_callers_get_their_own_bits(monkeypatch):
    # noise draws and detail transfers from several threads share the pool's workers
    shape = (5, 2, 8, 8)
    fields = {seed: LatentField(one_shot_standard_normal(seed, 640).reshape(shape)) for seed in range(6)}
    mask = Mask(np.full((5, 1, 8, 8), 0.5))

    def transfer(seed):
        return hf_transfer(fields[seed], fields[(seed + 1) % 6], mask, 0.7, 0.6).data.tobytes()

    monkeypatch.setattr(rng, "_WORKERS", 1)
    transfers = {seed: transfer(seed) for seed in fields}
    monkeypatch.setattr(rng, "_WORKERS", 3)
    count = 2 * 3 * rng._BLOCK_PAIRS + 1
    expected = {seed: (one_shot_standard_normal(seed, count).tobytes(), transfers[seed]) for seed in range(6)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(expected)) as callers:
            drawn = callers.map(
                lambda seed: (standard_normal(seed, count).tobytes(), transfer(seed)), expected, timeout=60
            )
            results = dict(zip(expected, drawn))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_seed_wraps_modulo_two_to_the_64():
    assert np.array_equal(standard_normal(-1, 40_001), standard_normal(2**64 - 1, 40_001))
    assert np.array_equal(standard_normal(2**64 + 5, 7), standard_normal(5, 7))


def test_large_draw_bits_are_pinned():
    digest = hashlib.sha256(standard_normal(1, 2**20 + 3).tobytes()).hexdigest()
    assert digest == SEED1_LARGE_SHA256


def _draw_and_compare(count, expected):
    sys.exit(0 if standard_normal(5, count).tobytes() == expected else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_still_draws():
    count = 2 * 3 * rng._BLOCK_PAIRS
    # a multi-block draw starts the pool's threads in this process first
    expected = standard_normal(5, count).tobytes()
    child = multiprocessing.get_context("fork").Process(target=_draw_and_compare, args=(count, expected))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
