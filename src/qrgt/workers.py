"""The agent split: which agents each thread handles, and the pinned pool
that runs them; ``gram_products``, the one owner of the Gram products
of the local gradients and of the metrics, which checks its input and
calls its unchecked kernel ``_gram_products`` (the engine and the
metrics call the kernel); and ``panels``, the cut that keeps each BLAS
call of those products and of ``network.mix`` small.

A per-agent job over a large Gram stack (building the stack in
``problems.make_instance``, and the products of ``gram_products``) is
cut into contiguous agent chunks by ``agent_chunks``, and ``run_chunks``
runs one task per chunk. The rule: the Gram stack holds at least
``SPLIT_GRAM_BYTES`` (MNIST-sized data, not the d=10 preset), BLAS is pinned
to one thread, and the process may run on at least two CPUs; then there is
one chunk per CPU, no more chunks than agents. Otherwise there is one chunk,
run on the calling thread, and no thread is started.

Within a chunk, each product G X, an agent's G_i X_i or the metrics'
mean Gram times a mean, is cut by rows into the ``panels`` whose GEMMs
have M N K of at most ``SMALL_GEMM``: OpenBLAS on one thread takes such a
GEMM by its small-matrix kernel, which packs no operand, and at the MNIST
shape four panels of 196 rows took about half the time of the one packed
product (README, "Threads"). A product that fits in one panel, as every
product on the d=10 preset does, is one call.

Several chunks run on one lazily created module pool with a worker pinned
to each CPU, while the calling thread waits. The CPUs and the BLAS thread
variables are read once, at import: ``taskset`` bounds the threads, and the
BLAS thread setting is read, never changed.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Callable
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "SPLIT_GRAM_BYTES",
    "SMALL_GEMM",
    "agent_chunks",
    "run_chunks",
    "gram_products",
    "panels",
]

# Gram stacks at least this large have their per-agent work split across
# threads; below it, waking a worker costs more than the split saves.
SPLIT_GRAM_BYTES = 32 * 2**20
# The largest M N K of a GEMM that OpenBLAS, on one thread, hands to its
# small-matrix kernel, which packs no operand (README, "Threads").
SMALL_GEMM = 10**6
# The BLAS thread variables; the split runs only when those set all say 1.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_one_thread(environ) -> bool:
    """Whether the BLAS thread variables pin BLAS to one thread: at least one
    is set, and every one set says 1. Split threads each calling a threaded
    BLAS contend for the same CPUs and run slower than one thread."""
    values = [environ[v].strip() for v in _BLAS_THREAD_VARS if v in environ]
    return bool(values) and all(v == "1" for v in values)


# The CPUs this process may use and the thread count, read once at import: a
# caller that later pins its own thread to one CPU does not turn the split off.
# Without an affinity call (macOS, Windows) the list is empty and one thread runs.
_CPU_LIST = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
_THREADS = len(_CPU_LIST) if _CPU_LIST and _blas_one_thread(os.environ) else 1
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def agent_chunks(n: int, gram_bytes: int) -> list[tuple[int, int]]:
    """Contiguous agent ranges [lo, hi) covering agents 0..n-1, one per
    thread: as many as ``_THREADS`` (at most ``n``) when a Gram stack of
    ``gram_bytes`` reaches ``SPLIT_GRAM_BYTES``, otherwise one."""
    threads = min(_THREADS, n) if gram_bytes >= SPLIT_GRAM_BYTES else 1
    return [(n * k // threads, n * (k + 1) // threads) for k in range(threads)]


def run_chunks(tasks: list[Callable[[], None]]) -> None:
    """Run one task per agent chunk and wait for all of them.

    A single task runs on the calling thread and starts no thread; several
    run on the pinned pool. Every task finishes before this returns or
    raises, and the first failed task's error, in chunk order, is raised
    here, on the calling thread.
    """
    if len(tasks) == 1:
        tasks[0]()
        return
    pool = _worker_pool()
    futures = [pool.submit(task) for task in tasks]
    errors = [future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error


def gram_products(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """G @ X for a symmetric Gram ``G`` and a thin ``X``: a (d, d) matrix
    with X of shape (d, r) or a (k, d, r) stack, or an (n, d, d) stack with
    X of shape (n, d, r). The result is a new C-contiguous array, by
    ``_gram_products`` after the shape checks; a shape outside these
    raises ``ValueError``.
    """
    G = np.asarray(G, dtype=float)
    X = np.asarray(X, dtype=float)
    if G.ndim not in (2, 3) or G.shape[-1] != G.shape[-2]:
        raise ValueError(f"G must be a (d, d) matrix or an (n, d, d) stack, got shape {G.shape}")
    if G.ndim == 3:
        fits = X.ndim == 3 and X.shape[:2] == G.shape[:2]
    else:
        fits = X.ndim in (2, 3) and X.shape[-2] == G.shape[0]
    if not fits:
        raise ValueError(f"shape mismatch: G is {G.shape}, X is {X.shape}")
    return _gram_products(G, X)


def _gram_products(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The kernel of ``gram_products``, unchecked.

    Two rules. The split goes by size: a stack of ``SPLIT_GRAM_BYTES`` or
    more is cut into the chunks of ``agent_chunks``; the one (d, d) Gram of
    the metrics never is. Within a chunk, each product is cut by rows into
    ``panels``, one matmul per panel; numpy's matmul makes one BLAS call per
    agent or mean and releases the GIL. So every product is the same BLAS
    calls in any chunk and in any stack of means, and every chunking gives
    the same bits. A panel's rows may round differently from the same rows
    of the uncut product, since BLAS picks its kernel by the GEMM's size;
    the tests bound the difference at d = 784 and check that the d = 10
    preset, whose products are one panel, keeps the plain bits.
    """
    # Below the split size, one call: on the d = 10 preset, the chunk views
    # and the task would cost as much as the product itself. A (d, d) Gram
    # has no agents: from d = 2048 its 32 MiB would be cut along its rows.
    if G.ndim == 2 or G.nbytes < SPLIT_GRAM_BYTES:
        return _products(G, X)
    out = np.empty(X.shape)
    chunks = agent_chunks(len(G), G.nbytes)
    run_chunks([partial(_products, G[lo:hi], X[lo:hi], out[lo:hi]) for lo, hi in chunks])
    return out


def panels(length: int, unit: int) -> list[tuple[int, int]]:
    """Near-equal ranges [lo, hi) covering 0..length-1, as few as keep each
    range's ``unit * (hi - lo)`` at most ``SMALL_GEMM``: the row or column
    panels of a GEMM whose M N K grows by ``unit`` per row or column. One
    range when the whole fits, or when not even one row or column does."""
    most = SMALL_GEMM // unit
    count = -(-length // most) if most else 1
    return [(length * k // count, length * (k + 1) // count) for k in range(count)]


def _products(G: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """G @ X by the rules of ``_gram_products``, for a (d, d) or (n, d, d)
    Gram, written into ``out`` or a new C-contiguous array. A product whose
    M N K is within ``SMALL_GEMM`` takes one matmul with no view; a larger
    one takes one matmul per row panel."""
    d, r = G.shape[-1], X.shape[-1]
    if d * d * r <= SMALL_GEMM:
        return np.matmul(G, X, out=out)
    if out is None:
        out = np.empty(X.shape)
    for lo, hi in panels(d, d * r):
        np.matmul(G[..., lo:hi, :], X, out=out[..., lo:hi, :])
    return out


def _worker_pool() -> ThreadPoolExecutor:
    """The module's one pool of ``_THREADS`` workers, created on first use.
    ``concurrent.futures`` is imported here, not with the module: a process
    whose Grams never split does not load it (0.4 MB of resident memory)."""
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=_THREADS,
                thread_name_prefix="qrgt-agents",
                initializer=_pin_worker,
                initargs=(itertools.count(),),
            )
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's workers do not exist there, and a
    task handed to their pool would never run, so the child makes its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pin_worker(slots: itertools.count) -> None:
    """Pin the new worker to the next CPU of ``_CPU_LIST``, round robin.

    Left free, the scheduler runs a short burst of two threads on one CPU
    while the other idles; pinned, each chunk has a CPU of its own. A CPU
    that has left the process's affinity since import leaves the worker free.
    """
    try:
        os.sched_setaffinity(0, {_CPU_LIST[next(slots) % len(_CPU_LIST)]})
    except OSError:
        pass
