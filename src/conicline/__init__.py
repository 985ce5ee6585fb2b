"""Fundamental groups of complements of real conic-line arrangements.

The pipeline: hold curves as exact polynomials (:mod:`.polys`), extract
local braid monodromies (:mod:`.local_models`, and numerically by
:mod:`.tracker`), assemble global factorizations and emit presentations
(:mod:`.van_kampen`), simplify them (:mod:`.tietze`), and verify the
expected groups via computable invariants (:mod:`.invariants`,
:mod:`.catalog`).
"""

__version__ = "1.0.0"
