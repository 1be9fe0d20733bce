"""Binaural sound-source localization with a dual-encoder spectrogram transformer.

Importing the package sets glibc's heap policy (``_keep_freed_heap``), so
the CLI, the library and its tests all run on the same allocator settings.
"""

import ctypes
import platform

__version__ = "0.1.0"

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Let glibc keep freed activation memory for the next allocation.

    By default glibc serves large blocks with mmap and returns freed heap
    tops to the kernel, so every forward pass faults its activations back
    in. Blocks up to 32 MiB come from the heap instead, and up to 128 MiB
    of free heap top is kept. Both thresholds are set together: setting
    either one turns off glibc's adjustment of both, and either alone faults
    more than the default. Elsewhere than glibc this does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 128 << 20)


_keep_freed_heap()
