"""Deterministic counter-based PRNG with a Box-Muller Gaussian transform.

The generator is splitmix64 run in counter mode: word i of stream `seed` is
mix64(seed + (i+1) * GAMMA) where mix64 is the splitmix64 finalizer and
GAMMA is the 64-bit golden-ratio increment. Everything is fixed-width
uint64 / float64 arithmetic, so identical (seed, shape) yields bit-identical
output on every platform. numpy's own generators are deliberately not used
here; their bit streams are not part of any compatibility contract.

The module also owns the package's one thread pool. Every draw is a
QueuedDraw whose chunks are queued on it, collected at once by
standard_normal or later by its caller; run_chunks splits other work,
latent's frequency split and detail transfer, across it.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Box-Muller pairs per block: a block's buffers (320 KB) stay in a core's cache
_BLOCK_PAIRS = 8192
# (k + 1) * GAMMA for k < _BLOCK_PAIRS: counter offsets inside a block
_BLOCK_STEPS = np.arange(1, _BLOCK_PAIRS + 1, dtype=np.uint64) * GAMMA
_TWO_PI = 2.0 * np.pi
# bits of 1.0, and 1 - 2**-53: with them (x | _ONE_BITS) - _UNIFORM_SHIFT is
# exactly (x + 0.5) * 2**-52 for every 52-bit x
_ONE_BITS = np.uint64(0x3FF0000000000000)
_UNIFORM_SHIFT = 1.0 - 2.0**-53

_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _start_pool() -> None:
    """Bind a fresh worker pool; it starts its threads on first use, not here.

    numpy releases the GIL inside its ufunc loops and FFTs, so the ranges
    run_chunks hands the pool run in parallel.
    """
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="rcflow")


_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads; the old pool would wait on them forever
    os.register_at_fork(after_in_child=_start_pool)


def _mix64(x: np.ndarray, spare: np.ndarray) -> None:
    """splitmix64 finalizer, in place: x is uint64 and all ops wrap mod 2^64.

    spare is scratch of x's size, so no temporaries are allocated.
    """
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, np.uint64(shift), out=spare)
        np.bitwise_xor(x, spare, out=x)
        np.multiply(x, factor, out=x)
    np.right_shift(x, np.uint64(31), out=spare)
    np.bitwise_xor(x, spare, out=x)


def random_words(seed: int, count: int) -> np.ndarray:
    """First `count` uint64 words of the splitmix64 stream for `seed`."""
    counters = np.arange(1, count + 1, dtype=np.uint64)
    words = np.uint64(seed & _MASK64) + counters * GAMMA
    _mix64(words, counters)  # counters are spent: reused as scratch
    return words


def uniform_open(seed: int, count: int) -> np.ndarray:
    """`count` float64 uniforms strictly inside (0, 1)."""
    words = random_words(seed, count)
    # top 52 bits plus a half-ulp offset keeps both endpoints excluded
    return ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def run_chunks(task: Callable[[int, int], None], stop: int) -> None:
    """Run task(lo, hi) over contiguous ranges that cover [0, stop), one range per CPU.

    The first range runs on the calling thread, the rest on the shared pool.
    It returns or raises only after every range has finished, so the ranges
    may write into arrays the caller owns. A task that runs on the pool must
    never call run_chunks itself: it would wait on ranges queued behind it
    on the pool it occupies, and could deadlock.
    """
    chunks = max(1, min(_WORKERS, stop))
    bounds = [stop * k // chunks for k in range(chunks + 1)]
    futures = [_POOL.submit(task, bounds[k], bounds[k + 1]) for k in range(1, chunks)]
    try:
        task(bounds[0], bounds[1])
    finally:
        # the ranges write into the caller's arrays: never return or raise while one runs
        wait(futures)
    for future in futures:
        future.result()


def _fill_pairs(seed: int, pairs: int, start: int, stop: int, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write Box-Muller pairs [start, stop) of a `pairs`-pair draw into out.

    Pair j takes u1 from counter j + 1 and u2 from counter pairs + j + 1 and
    writes out[2j] and out[2j + 1], exactly as the one-shot form
    `uniform_open(seed, 2 * pairs)` split in halves would. Each element comes
    from the same ufuncs on the same input value, so the bits do not depend
    on the block or chunk it falls in. scratch holds 5 * block uint64 words,
    with block <= _BLOCK_PAIRS, and is reused by every block.
    """
    block = len(scratch) // 5
    words, spare = scratch[: 2 * block], scratch[2 * block : 4 * block]
    cosines = scratch[4 * block :].view(np.float64)
    for lo in range(start, stop, block):
        n = min(block, stop - lo)
        x = words[: 2 * n]
        np.add(_BLOCK_STEPS[:n], np.uint64((seed + lo * int(GAMMA)) & _MASK64), out=x[:n])
        np.add(_BLOCK_STEPS[:n], np.uint64((seed + (pairs + lo) * int(GAMMA)) & _MASK64), out=x[n:])
        _mix64(x, spare[: 2 * n])
        np.right_shift(x, np.uint64(12), out=x)
        np.bitwise_or(x, _ONE_BITS, out=x)
        u = x.view(np.float64)
        np.subtract(u, _UNIFORM_SHIFT, out=u)
        radius, angle, cos = u[:n], u[n:], cosines[:n]
        np.log(radius, out=radius)
        np.multiply(radius, -2.0, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(angle, _TWO_PI, out=angle)
        np.cos(angle, out=cos)
        np.sin(angle, out=angle)
        np.multiply(radius, cos, out=out[2 * lo : 2 * (lo + n) : 2])
        np.multiply(radius, angle, out=out[2 * lo + 1 : 2 * (lo + n) : 2])


def standard_normal(seed: int, count: int) -> np.ndarray:
    """`count` standard-normal float64 values via the Box-Muller transform.

    Pairs (u1, u2) are the first and second halves of a 2*ceil(count/2)
    uniform block; pair j yields r*cos and r*sin with r = sqrt(-2 ln u1).
    The draw is a QueuedDraw collected at once, so the calling thread waits
    while the pool fills its chunks.
    """
    return QueuedDraw(seed, count).result()


class QueuedDraw:
    """A standard_normal draw whose chunks are queued on the shared pool.

    A draw of more than one block is split into one contiguous chunk per
    CPU; the bits are the same for every CPU count. Each chunk's scratch is
    allocated on the calling thread, so the pool's threads keep no heap
    memory of their own. Its memory is written until every chunk has
    finished: call result() for the values, or wait() before dropping a
    draw that is no longer wanted. As with run_chunks, a task that runs on
    the pool must never wait on a draw: the chunks it waits on could be
    queued behind it on the pool it occupies.
    """

    __slots__ = ("_futures", "_values")

    def __init__(self, seed: int, count: int):
        pairs = (count + 1) // 2
        out = np.empty(2 * pairs)
        seed &= _MASK64
        chunks = 1 if pairs <= _BLOCK_PAIRS else _WORKERS
        bounds = [pairs * k // chunks for k in range(chunks + 1)]
        scratch = np.empty((chunks, 5 * max(1, min(_BLOCK_PAIRS, pairs))), dtype=np.uint64)
        self._values = out[:count]
        self._futures = [
            _POOL.submit(_fill_pairs, seed, pairs, bounds[k], bounds[k + 1], out, scratch[k]) for k in range(chunks)
        ]

    def wait(self) -> None:
        """Block until no chunk runs or waits on the pool; raises nothing."""
        wait(self._futures)

    def result(self) -> np.ndarray:
        """The draw's `count` values, once every chunk has finished."""
        self.wait()
        for future in self._futures:
            future.result()
        return self._values


def derive_seed(seed: int, *indices: int) -> int:
    """Fold stream indices into a 64-bit sub-stream seed.

    Used to give every (step, draw) its own independent noise stream while
    keeping the whole run a pure function of the root seed.
    """
    # 1-element array: numpy integer overflow wraps silently for arrays only
    state = np.array([seed & _MASK64], dtype=np.uint64)
    for index in indices:
        state = (state + GAMMA) ^ np.uint64(index & _MASK64)
        _mix64(state, np.empty_like(state))
    return int(state[0])
