"""Deterministic RNG derivation for sharded, reproducible estimators.

Every estimator in this package derives its generators through
:func:`derive_rng` so that a (seed, purpose, shard) triple always maps to
the same stream, independent of how work is scheduled. Chunked samplers
walk :func:`batches`, so a result depends only on the seed and the sample
count. The OU scans split their paths into near-equal shards sized from
:data:`BATCH` (``ousim._shards``) and key shard ``i`` by ``i``, since
each shard draws its paths a block of steps at a time. The Monte Carlo
indicator averages (``orthant_mc``, ``gaussian_measure`` on a composite
outside the plane, ``semigroup_apply``) share one loop,
:func:`indicator_hits`, whose counts do not depend on :data:`BATCH` at
all.

Independent pieces of work (the shards of an OU scan, the probes of a
composite set in the equality diagnostic, the batches of the
joint-containment frequency) go through :func:`fan_out`, which runs
them on one thread per CPU this process may use. There is no setting:
each piece draws from its own keyed stream and the results are combined
in item order, so reports do not depend on the number of workers.
"""
from __future__ import annotations

import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Points per batch of every chunked sampler; the OU scans split their
# paths into two shards per batch.
BATCH = 1 << 16

# Threads of the shared pool: one per CPU this process may use. A module
# constant, not a setting; results are the same for every value.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1


def _key_parts(parts: tuple) -> tuple[int, ...]:
    return tuple(zlib.crc32(p.encode("utf-8")) if isinstance(p, str)
                 else int(p) for p in parts)


def check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def derive_rng(seed: int, *key) -> np.random.Generator:
    """Generator for the sub-stream identified by ``key`` under ``seed``."""
    ss = np.random.SeedSequence(check_seed(seed), spawn_key=_key_parts(key))
    return np.random.Generator(np.random.PCG64(ss))


def subseed(seed: int, *key) -> int:
    """Stable 63-bit seed for the piece of work named by ``key``, so that
    separate estimates decorrelate while the whole run stays
    reproducible."""
    return int(derive_rng(seed, *key).integers(0, 2**63 - 1))


def batches(samples: int):
    """(index, count) of each batch of a ``samples``-point run, in order:
    every count is at most :data:`BATCH` and the counts sum to
    ``samples``. Rejects ``samples < 1`` at the call."""
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    return ((index, min(BATCH, samples - start))
            for index, start in enumerate(range(0, samples, BATCH)))


def indicator_hits(seed: int, purpose: str, samples: int, dim: int,
                   predicate) -> int:
    """How many of ``samples`` standard normal points in R^dim satisfy
    ``predicate``, which maps an (n, dim) batch to n booleans. Every
    batch comes from the one stream keyed ``(purpose, 0)``, so the count
    does not depend on :data:`BATCH`. ``verify.joint_containment`` keeps
    a stream per batch, so that its batches run side by side on the
    pool; its numbers depend on :data:`BATCH` by design. Batch b of a
    one-factor matrix draws W and the composites' Z_i from
    ``derive_rng(seed, "joint", b)``, row by row; any other matrix takes
    Kronecker draws at the sub-seed ``subseed(seed, "joint", b)``."""
    rng = derive_rng(seed, purpose, 0)
    return sum(int(predicate(rng.standard_normal((n, dim))).sum())
               for _, n in batches(samples))


_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_pool_thread = threading.local()


def _mark_pool_thread():
    _pool_thread.active = True


def _pool(workers: int) -> ThreadPoolExecutor:
    """The shared pool of ``workers`` threads, built on first use."""
    with _pools_lock:
        if workers not in _pools:
            _pools[workers] = ThreadPoolExecutor(
                workers, thread_name_prefix="noisestab",
                initializer=_mark_pool_thread)
        return _pools[workers]


def fan_out(fn, items) -> list:
    """``[fn(item) for item in items]``, computed on the shared pool of
    :data:`WORKERS` threads; the results come back in item order.

    One item, one worker, or a call from a pool thread runs inline on
    the calling thread, so nested use neither deadlocks nor
    oversubscribes the CPUs. Numpy's generators and ufuncs release the
    interpreter lock, so the threads overlap in the array work. Callers
    fan out the innermost independent pieces, such as the shards of one
    OU scan, not the horizons of a run, so that the pieces of one call
    share the CPUs and the interpreter lock only with each other.
    """
    items = list(items)
    if len(items) < 2 or WORKERS < 2 or getattr(_pool_thread, "active",
                                                 False):
        return [fn(item) for item in items]
    return list(_pool(WORKERS).map(fn, items))
