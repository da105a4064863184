"""The kernel module and backend name, under the names the benchmark
harness in perfbench/ reads: it wraps the kernels through
`_backend.kernels` and records `get_backend()` in every run's metadata.
The library itself imports friabilis._kernels_py directly.
"""

from friabilis import _kernels_py as kernels


def get_backend():
    """Name of the kernel implementation: always 'python' (NumPy)."""
    return "python"
