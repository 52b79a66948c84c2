"""The agent split: which agents each thread handles, and the pinned pool
that runs them; and ``neg_gram_products``, the one owner of the Gram
products of the local gradients and of the metrics.

A per-agent job over a large Gram stack (building the stack in
``problems.make_instance``, and the products of ``neg_gram_products``) is
cut into contiguous agent chunks by ``agent_chunks``, and ``run_chunks``
runs one task per chunk. The rule: the Gram stack holds at least
``SPLIT_GRAM_BYTES`` (MNIST-sized data, not the d=10 preset), BLAS is pinned
to one thread, and the process may run on at least two CPUs; then there is
one chunk per CPU, no more chunks than agents. Otherwise there is one chunk,
run on the calling thread, and no thread is started.

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

__all__ = ["SPLIT_GRAM_BYTES", "TRANSPOSE_MIN_D", "agent_chunks", "run_chunks", "neg_gram_products"]

# Gram stacks at least this large have their per-agent work split across
# threads; below it, waking a worker costs more than the split saves.
SPLIT_GRAM_BYTES = 32 * 2**20
# Grams at least this wide are multiplied as (X^T G)^T; narrower ones, which
# fit in cache, run the plain G @ X faster (README, "Threads").
TRANSPOSE_MIN_D = 512
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


def neg_gram_products(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """-(G @ X) for a symmetric Gram ``G`` and a thin ``X``: a (d, d) matrix
    with X of shape (d, r) or a (k, d, r) stack, or an (n, d, d) stack with
    X of shape (n, d, r). The result is a new C-contiguous array.

    Two separate rules. The orientation goes by width: at d of at least
    ``TRANSPOSE_MIN_D`` each product is taken as (X^T G)^T. numpy hands a
    row-major ``G @ X`` to BLAS as a column-major GEMM with M = r, and at
    r = 5 the kernel leaves most of each vector lane idle, while ``X^T G``
    runs as a GEMM with M = d. The split goes by size: a stack of
    ``SPLIT_GRAM_BYTES`` or more is cut into the chunks of ``agent_chunks``,
    one stacked product each. numpy's stacked matmul makes one BLAS call per
    agent and releases the GIL, so every chunking gives the same bits, and
    on OpenBLAS both orientations gave ``-np.matmul(G, X)`` bit for bit.
    BLAS does not promise that; the tests compare them at d = 784 and on
    the d = 10 preset.
    """
    # Below the split size, one call: on the d = 10 preset, the chunk views
    # and the task would cost as much as the product itself.
    if G.ndim == 2 or G.nbytes < SPLIT_GRAM_BYTES:
        return _neg_products(G, X)
    out = np.empty(X.shape)
    chunks = agent_chunks(len(G), G.nbytes)
    run_chunks([partial(_neg_products, G[lo:hi], X[lo:hi], out[lo:hi]) for lo, hi in chunks])
    return out


def _neg_products(G: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """-(G @ X) in the orientation ``neg_gram_products`` picks, written into
    ``out`` or a new C-contiguous array. The transposed product goes through
    a C-contiguous (..., r, d) temporary: an ``out=`` view of the other
    layout would take numpy's matmul off BLAS. One Gram with a stack of k
    thin X is one GEMM of the stacked (k r, d) transposes with G, which reads
    G once where numpy's stacked matmul would read it k times."""
    if G.shape[-1] >= TRANSPOSE_MIN_D:
        if G.ndim == 2 and X.ndim == 3:
            rows = np.ascontiguousarray(np.swapaxes(X, -1, -2)).reshape(-1, G.shape[0])
            product = np.matmul(rows, G).reshape(len(X), X.shape[-1], -1)
        else:
            product = np.matmul(np.swapaxes(X, -1, -2), G)
        return np.negative(np.swapaxes(product, -1, -2), out=out, order="C")
    out = np.matmul(G, X, out=out)
    return np.negative(out, out=out)


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
