"""Topological feature engine: cubical persistence, diagram vectorization,
and gated fusion of topological features into a small vision model."""

import ctypes

__version__ = "0.1.0"

# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process rather than handing it back.

    A training step makes and frees a dozen numpy temporaries of 0.1-1.2 MiB.
    Under glibc's dynamic thresholds each goes back to the kernel (munmap or a
    heap trim) and is faulted in again by the next step: 400-600 minor page
    faults per 64x64 sample-step. With both thresholds fixed, blocks below
    32 MiB come from the heap and up to 64 MiB of freed heap stays resident.
    Fixing one threshold turns glibc's adjustment off for both, so both are
    set. Without mallopt (a C library other than glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()
