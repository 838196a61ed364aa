"""BLAS thread-count control.

Every process that issues BLAS calls may also get one BLAS thread team per
call.  Where several executors already share the host's cores — the
elastic engine's K worker processes (:mod:`repro.distributed.elastic`) —
those teams oversubscribe it:
K two-thread pools on two CPUs measured 2-4x slower than K one-thread ones.

``limit_blas_threads(n)``
    Pins the BLAS thread count to ``n`` for the duration of a block, and
    yields whether a controllable backend was found.  Uses
    :mod:`threadpoolctl` when available, else talks to OpenBLAS directly via
    :mod:`ctypes` (the bundled scipy-openblas), else degrades to a no-op.
``blas_threads()``
    The thread count in force, or ``None`` without such a backend.
``per_worker_threads(workers)``
    The count each of ``workers`` executors sharing the host should run at.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

_blas_ctl = None        # resolved limiter backend, memoized
_blas_resolved = False


def _resolve_blas_control():
    """Find a way to set the BLAS thread count; memoized.

    Returns ``(kind, impl)`` or ``None``.  Preference order:
    :mod:`threadpoolctl` (not bundled in this environment, but the right
    tool where present), then the OpenBLAS C API out of whatever shared
    object NumPy loaded (scipy-openblas here), found via
    ``/proc/self/maps``.
    """
    global _blas_ctl, _blas_resolved
    if _blas_resolved:
        return _blas_ctl
    _blas_resolved = True
    try:
        from threadpoolctl import threadpool_limits  # type: ignore

        _blas_ctl = ("threadpoolctl", threadpool_limits)
        return _blas_ctl
    except ImportError:
        pass
    try:
        import ctypes

        paths = set()
        with open("/proc/self/maps") as fh:
            for line in fh:
                part = line.rstrip("\n").split(" ", 5)[-1].strip()
                if "openblas" in os.path.basename(part).lower():
                    paths.add(part)
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            # scipy-openblas (numpy's bundled BLAS) namespaces the API
            for prefix in ("openblas", "scipy_openblas"):
                for suffix in ("", "64_", "_64_"):
                    base = f"{prefix}_%s_num_threads{suffix}"
                    get = getattr(lib, base % "get", None)
                    set_ = getattr(lib, base % "set", None)
                    if get is not None and set_ is not None:
                        get.restype = ctypes.c_int
                        set_.argtypes = [ctypes.c_int]
                        _blas_ctl = ("openblas", (get, set_))
                        return _blas_ctl
    except Exception:  # pragma: no cover - permissive: limiter is advisory
        pass
    _blas_ctl = None
    return None


def blas_threads() -> Optional[int]:
    """The BLAS thread count now in force (``None``: no backend found)."""
    ctl = _resolve_blas_control()
    if ctl is None:
        return None
    kind, impl = ctl
    if kind == "threadpoolctl":
        from threadpoolctl import threadpool_info  # type: ignore

        counts = [i["num_threads"] for i in threadpool_info()
                  if i.get("user_api") == "blas"]
        return min(counts) if counts else None
    get, _ = impl
    return int(get())


def per_worker_threads(workers: int) -> int:
    """BLAS threads for one of ``workers`` executors sharing this host: an
    equal share of the CPUs it may run on, never more than the count in
    force (an ``OPENBLAS_NUM_THREADS`` cap stays a cap)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    share = max(1, cpus // workers)
    now = blas_threads()
    return share if now is None else min(share, now)


@contextmanager
def limit_blas_threads(n: int = 1):
    """Pin the BLAS thread count to ``n`` for the duration of the block.

    Yields whether a controllable backend was found; without one the block
    runs unclamped.
    """
    ctl = _resolve_blas_control()
    if ctl is None:
        yield False
        return
    kind, impl = ctl
    if kind == "threadpoolctl":
        with impl(limits=n, user_api="blas"):
            yield True
        return
    get, set_ = impl
    prev = int(get())
    set_(int(n))
    try:
        yield True
    finally:
        set_(prev)
