"""Obstruction calculus for fundamental groups of positively curved
13-manifolds with torus symmetry: parameter catalog, finite-group
analysis, fixed-point bookkeeping, a mod-p spectral-sequence engine and
the case pipeline tying them together."""

__version__ = "0.1.0"
