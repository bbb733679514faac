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

``rank_int`` is ``pure.rank_int`` under both backends too. The library's
exact ranks are of the index oracle's skew-symmetric Kirillov matrices, which
``pure`` eliminates with 2 x 2 pivots and Pfaffian-sized entries, while the
compiled ``rank_int`` runs dense Bareiss on Python ints and, like the
compiled ``det_int``, is reached only by the parity test. ``rank_mod`` stays
compiled: its fixed-width arithmetic beats the pure skew elimination. With
``_fast.c`` built by ``gcc -O3 -shared -fPIC`` (2-core Xeon, Python 3.11.7),
the 6,100 exact ranks of an oracle_sweep pass at seed 101 took 7.23 s with
the compiled dense ``rank_int`` and 2.49 s with the pure skew one; its 6,276
mod-p ranks took 0.90 s compiled and 1.75 s pure (``2|18 / 20``, dim 363:
0.055 s against 1.13 s).
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
rank_int = pure.rank_int
rank_mod = _impl.rank_mod

__all__ = ["BACKEND", "det_int", "echelon_int", "rank_int", "rank_mod"]
