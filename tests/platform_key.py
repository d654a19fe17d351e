"""The platform key of the recorded output digests: what sets this
program's bits beyond its own code.

numpy's SIMD loops (``np.log``, ``np.exp``, ...) and the OpenBLAS kernels
can change an output's last bits from one platform to another.  So a
digest recorded on one machine holds wherever all of these agree: the
Python build, numpy, the BLAS build, the machine architecture, the SIMD
targets numpy dispatches to on this CPU and the OpenBLAS core selected at
load (``OPENBLAS_CORETYPE`` overrides it).  A CPU model string is not part
of the key: one model can run with or without some SIMD targets, and
different models can select the same ones.
"""

import ctypes
import platform
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

# The name of the core query in each OpenBLAS build numpy may bundle.
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename")


def openblas_core() -> str:
    """The core the OpenBLAS bundled with numpy runs on (``SkylakeX``,
    ``Haswell``, ...), read through ctypes from the library numpy has
    already loaded; "unknown" where numpy bundles no OpenBLAS."""
    numpy_dir = Path(np.__file__).parent
    for library in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"), *numpy_dir.glob(".dylibs/*openblas*")]):
        handle = ctypes.CDLL(str(library))
        for symbol in _CORENAME_SYMBOLS:
            if hasattr(handle, symbol):
                corename = getattr(handle, symbol)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode("ascii")
    return "unknown"


def platform_key() -> str:
    """One line naming the Python build, numpy, the BLAS build, the
    machine, numpy's baseline and dispatched SIMD targets, and the
    OpenBLAS core."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    features = _multiarray_umath.__cpu_features__
    simd = [*_multiarray_umath.__cpu_baseline__,
            *(target for target in _multiarray_umath.__cpu_dispatch__ if features.get(target))]
    return " | ".join([
        f"{platform.python_implementation()} {platform.python_version()}",
        f"numpy {np.__version__}",
        f"{blas.get('name', 'blas')} {blas.get('version', 'unknown')}",
        platform.machine(),
        f"simd {','.join(simd)}",
        f"openblas core {openblas_core()}",
    ])
