"""Deterministic counter-based PRNG with a Box-Muller Gaussian transform.

The generator is splitmix64 run in counter mode: word i of stream `seed` is
mix64(seed + (i+1) * GAMMA) where mix64 is the splitmix64 finalizer and
GAMMA is the 64-bit golden-ratio increment. Everything is fixed-width
uint64 / float64 arithmetic, so identical (seed, shape) yields bit-identical
output on every platform. numpy's own generators are deliberately not used
here; their bit streams are not part of any compatibility contract.

The module also owns the package's one thread pool, and its one rule:
whoever waits on pool work runs every piece of it that no pool thread has
claimed (_Pieces). Every draw is a QueuedDraw whose chunks are queued on
the pool, collected at once by standard_normal or later by its caller;
run_chunks splits other work across it: latent's frequency split and
detail transfer, and its elementwise stages while the pool is idle.
"""

from __future__ import annotations

import os
import queue
import threading
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Box-Muller pairs per block: a block's buffers (320 KB) stay in a core's cache
_BLOCK_PAIRS = 8192
# blocks per chunk of a larger draw: pieces small enough that a waiter finds some unclaimed
_CHUNK_BLOCKS = 8
# (k + 1) * GAMMA for k < _BLOCK_PAIRS: counter offsets inside a block
_BLOCK_STEPS = np.arange(1, _BLOCK_PAIRS + 1, dtype=np.uint64) * GAMMA
_TWO_PI = 2.0 * np.pi
# bits of 1.0, and 1 - 2**-53: with them (x | _ONE_BITS) - _UNIFORM_SHIFT is
# exactly (x + 0.5) * 2**-52 for every 52-bit x
_ONE_BITS = np.uint64(0x3FF0000000000000)
_UNIFORM_SHIFT = 1.0 - 2.0**-53

_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Pool:
    """The package's one thread pool, and the queued work its threads help finish.

    It holds max(1, CPUs - 1) threads: the thread that waits on queued work
    is the remaining worker, and runs every piece of it no pool thread has
    claimed. The threads run _help tasks, which claim pieces of the oldest
    open work; numpy releases the GIL inside its ufunc loops and FFTs, so
    the pieces run in parallel.
    """

    def __init__(self):
        self.threads = max(1, _WORKERS - 1)
        # the executor starts its threads on first use, not here
        self.executor = ThreadPoolExecutor(max_workers=self.threads, thread_name_prefix="rcflow")
        self.lock = threading.Lock()  # guards what follows, and every _Pieces' counts
        self.finished = threading.Condition(self.lock)  # notified when the last piece of a _Pieces ends
        self.open: deque[_Pieces] = deque()  # work with pieces nobody has claimed, oldest first
        self.running = 0  # pieces claimed that have not finished
        self.helpers = 0  # _help tasks submitted to the executor that have not returned

    def idle(self) -> bool:
        """Whether no work is queued and no piece runs, so work split now has every CPU to itself."""
        with self.lock:
            return not self.open and not self.running

    def offer(self, pieces: _Pieces) -> None:
        """Queue the work of `pieces`, and submit helping tasks until min(threads, its pieces) are live."""
        with self.lock:
            self.open.append(pieces)
            new = max(0, min(self.threads, len(pieces.args)) - self.helpers)
            self.helpers += new
        for _ in range(new):
            self.executor.submit(self._help)

    def _help(self) -> None:
        """Run unclaimed pieces, the oldest work's first, until nobody has one left."""
        while True:
            with self.lock:
                if not self.open:
                    self.helpers -= 1
                    return
                pieces = self.open[0]
                k = pieces.claim()
            pieces.run(k)


class _Pieces:
    """Calls fn(*args), one per args tuple (at least one), queued on the shared pool as pieces.

    The pool's threads claim pieces in order and run them. Whoever waits on
    the work claims and runs every piece still unclaimed, then waits only on
    the pieces a pool thread is running. A claimed piece leaves the pool's
    queue at once, so the queue keeps nothing for work already done. Any
    thread may wait, a task on the pool included: each piece it waits on is
    already running, or run by itself, never queued behind it.
    """

    __slots__ = ("_pool", "fn", "args", "_claimed", "_finished", "_errors")

    def __init__(self, fn: Callable[..., None], args: list[tuple]):
        self._pool = _POOL
        self.fn = fn
        self.args = args
        self._claimed = 0  # pieces [0, _claimed) are claimed, guarded by the pool's lock
        self._finished = 0
        self._errors: list[BaseException | None] = [None] * len(args)
        self._pool.offer(self)

    def claim(self) -> int:
        """The next unclaimed piece; the caller holds the pool's lock and knows there is one."""
        k = self._claimed
        self._claimed += 1
        self._pool.running += 1
        if self._claimed == len(self.args):
            self._pool.open.remove(self)
        return k

    def run(self, k: int) -> None:
        """Run claimed piece k, holding its error as a future would."""
        error = None
        try:
            self.fn(*self.args[k])
        except BaseException as exc:  # raised by result(), on the waiting thread
            error = exc
        with self._pool.lock:
            self._errors[k] = error
            self._finished += 1
            self._pool.running -= 1
            if self._finished == len(self.args):
                self._pool.finished.notify_all()

    def wait(self) -> None:
        """Return once every piece has finished; raises nothing, result() raises."""
        lock = self._pool.lock
        while True:
            with lock:
                if self._claimed == len(self.args):
                    break
                k = self.claim()
            self.run(k)
        with lock:
            while self._finished < len(self.args):
                self._pool.finished.wait()

    def result(self) -> None:
        """Wait for every piece, then raise the first error in piece order, if any."""
        self.wait()
        error = next((e for e in self._errors if e is not None), None)
        if error is not None:
            raise error


def _start_pool() -> None:
    """Bind a fresh pool with no work queued."""
    global _POOL
    _POOL = _Pool()


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

    The ranges are queued on the shared pool, and the calling thread runs
    every range no pool thread has claimed; a single range it runs itself.
    It returns or raises only after every range has finished, so the ranges
    may write into arrays the caller owns; it raises the first error in
    range order. Any thread may call it, a task running on the pool
    included.
    """
    chunks = max(1, min(_WORKERS, stop))
    if chunks == 1:
        task(0, stop)
        return
    bounds = [stop * k // chunks for k in range(chunks + 1)]
    _Pieces(task, list(zip(bounds, bounds[1:]))).result()


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


def _fill_chunk(seed: int, pairs: int, start: int, stop: int, out: np.ndarray, spares: queue.SimpleQueue) -> None:
    """_fill_pairs over [start, stop) on a scratch block taken from spares, and given back."""
    scratch = spares.get()
    try:
        _fill_pairs(seed, pairs, start, stop, out, scratch)
    finally:
        spares.put(scratch)


class QueuedDraw:
    """A standard_normal draw whose chunks are queued on the shared pool.

    A draw of more than one block is cut into chunks of at most
    _CHUNK_BLOCKS blocks, and into at least one chunk per CPU; the bits are
    the same for every chunk bound and CPU count. The chunks share one
    block of scratch per CPU, allocated on the calling thread, so the pool's
    threads keep no heap memory of their own. The draw's memory is written
    until every chunk has finished: call result() for the values, or wait()
    before dropping a draw that is no longer wanted. Either one runs every
    chunk no pool thread has claimed on the calling thread, so any thread
    may wait on a draw, a task running on the pool included.
    """

    __slots__ = ("_chunks", "_values")

    def __init__(self, seed: int, count: int):
        pairs = (count + 1) // 2
        out = np.empty(2 * pairs)
        seed &= _MASK64
        chunks = 1 if pairs <= _BLOCK_PAIRS else max(_WORKERS, -(-pairs // (_CHUNK_BLOCKS * _BLOCK_PAIRS)))
        bounds = [pairs * k // chunks for k in range(chunks + 1)]
        spares = queue.SimpleQueue()
        for scratch in np.empty((min(chunks, _WORKERS), 5 * max(1, min(_BLOCK_PAIRS, pairs))), dtype=np.uint64):
            spares.put(scratch)
        self._values = out[:count]
        self._chunks = _Pieces(_fill_chunk, [(seed, pairs, lo, hi, out, spares) for lo, hi in zip(bounds, bounds[1:])])

    def wait(self) -> None:
        """Return once every chunk has finished; raises nothing."""
        self._chunks.wait()

    def result(self) -> np.ndarray:
        """The draw's `count` values, once every chunk has finished."""
        self._chunks.result()
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
