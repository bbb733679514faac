"""Integer elimination kernels.

The four kernels live in ``pure`` and are bound here by name; the library
calls them through this package. ``pure`` stays a module of its own so that
``perfbench``'s tracer, which wraps the names here, counts a kernel's calls
to another kernel inside ``pure`` (``rank_int`` runs ``echelon_int``, and a
non-skew ``det_int`` the dense Bareiss loop behind it) as part of one span. ``BACKEND`` names the one kernel path, and ``seaweed.BACKEND``
re-exports it so benchmark records can state what ran.
"""
from .pure import det_int, echelon_int, rank_int, rank_mod

BACKEND = "pure"

__all__ = ["BACKEND", "det_int", "echelon_int", "rank_int", "rank_mod"]
