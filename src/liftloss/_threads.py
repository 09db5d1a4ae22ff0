"""One pool of worker threads for the row passes of a training step.

numpy releases the GIL inside its elementwise loops, gathers and BLAS calls,
so Python threads running them over disjoint rows share the usable CPUs.
Each pass writes its rows into arrays its caller owns; anything that sums
over rows is added up by the caller in row order, so every result is
bit-identical whatever the thread count.
"""

from __future__ import annotations

import contextvars
import functools
import os

# a per-row pass splits only when each thread gets at least this many rows: on 2 vCPUs
# two threads ran `effective_gradient` no faster than one below about 100k rows each
MIN_SPLIT_ROWS = 1 << 17


def usable_cpus() -> int:
    """CPUs this process may run on; the passes run one thread on each."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _pool(threads: int):
    """The worker threads, built at the first pass that splits."""
    from concurrent.futures import ThreadPoolExecutor  # here, so `import liftloss` does not

    return ThreadPoolExecutor(threads, thread_name_prefix="liftloss-rows")


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def over_threads(blocks: list[slice], run) -> list:
    """`run(part)` for each thread's contiguous part of `blocks`, in block order.

    The caller runs the first part, and one pool thread each of the others,
    in a copy of the caller's context, so under its `np.errstate`.
    """
    cpus = usable_cpus()
    threads = min(cpus, len(blocks))
    parts = [blocks[i * len(blocks) // threads : (i + 1) * len(blocks) // threads]
             for i in range(threads)]
    futures = [_pool(cpus - 1).submit(contextvars.copy_context().run, run, part)
               for part in parts[1:]]
    try:
        first = run(parts[0])
    finally:
        for f in futures:  # they write into the caller's arrays: wait for each, even on error
            f.exception()
    return [first] + [f.result() for f in futures]


def over_rows(n: int, run, align: int = 1) -> list:
    """`run(rows)` for one contiguous slice of `n` rows per thread, in row order.

    There are as many slices as usable CPUs, but no more than leave each
    `MIN_SPLIT_ROWS` rows, so fewer rows than twice that run as one slice on
    the caller's thread. Every slice starts at a multiple of `align`, which
    may take up to `align - 1` rows off a slice.
    """
    threads = max(1, min(usable_cpus(), n // MIN_SPLIT_ROWS))
    starts = [i * n // threads // align * align for i in range(threads)] + [n]
    ranges = [slice(a, b) for a, b in zip(starts, starts[1:])]
    return over_threads(ranges, lambda part: run(part[0]))
