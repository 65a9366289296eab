"""Stratification calculator for compatible almost complex structures on
the rational ruled surfaces: exact homology arithmetic, stable-map stratum
enumeration, gluing-bundle and plumbing calculus for normal links, and
numeric verification of the explicit projective models.
"""

__version__ = "0.1.0"
