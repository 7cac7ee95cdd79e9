"""Hot-path kernels with backend selection at import time.

The compiled Cython core is used when its extension module is importable;
otherwise the pure-Python implementation takes over transparently.
"""

try:
    from . import _core as _impl
except ImportError:
    from . import pure as _impl  # type: ignore[no-redef]

BACKEND: str = _impl.BACKEND
tokenize = _impl.tokenize
count_masks = _impl.count_masks
