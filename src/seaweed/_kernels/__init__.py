"""Integer elimination kernels with a compiled/pure backend switch.

The compiled extension is preferred when importable; set ``SEAWEED_PURE=1`` to
force the pure-Python twin (useful for comparison and as a safety hatch). Both
expose the same four functions and agree exactly on all inputs; the test suite
checks that.

``det_int`` is ``pure.det_int`` under both backends. The library's
determinants are of meander-built bordered matrices with about two nonzeros
per row, where the sparse elimination in ``pure`` does far less work than the
compiled module's dense Bareiss; the compiled ``det_int`` remains only as the
dense reference of the parity test.
"""
from __future__ import annotations

import os

from . import pure

if os.environ.get("SEAWEED_PURE"):
    _impl = pure
else:
    try:
        from . import _fast as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = pure

BACKEND: str = _impl.BACKEND
det_int = pure.det_int
echelon_int = _impl.echelon_int
rank_int = _impl.rank_int
rank_mod = _impl.rank_mod

__all__ = ["BACKEND", "det_int", "echelon_int", "rank_int", "rank_mod"]
