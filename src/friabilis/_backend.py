"""The kernel module, under the name the library and the benchmark harness
import it by.

`kernels` is friabilis._kernels_py itself.  The module and its BACKEND
name stay because the harness in perfbench/ wraps the kernels through
`_backend.kernels` and records `get_backend()` in every run's metadata.
"""

from friabilis import _kernels_py as kernels

BACKEND = kernels.BACKEND_NAME


def get_backend():
    """Name of the kernel implementation: always 'python' (NumPy)."""
    return BACKEND
