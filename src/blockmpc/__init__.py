"""Move-blocked multiple-shooting NMPC with linear-complexity condensing.

The package builds real-time-iteration controllers in three flavours:
a standard uniform-grid controller, a nonuniform-grid controller, and a
move-blocked controller that keeps the fine shooting grid while sharing
one input across several intervals.  The move-blocked stage data is
condensed to a small dense QP in O(N*M) block operations and solved by a
warm-started dual (Goldfarb-Idnani) active-set method.  The modules are
the import surface, e.g. ``from blockmpc.condensing import condense``.
"""

__version__ = "0.1.0"
