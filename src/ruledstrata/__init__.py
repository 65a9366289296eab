"""Stratification calculator for compatible almost complex structures on
the rational ruled surfaces: exact homology arithmetic, stable-map stratum
enumeration, gluing-bundle and plumbing calculus for normal links, and
numeric verification of the explicit projective models.

The package root holds the input limits that more than one module checks,
MAX_DIGITS and MAX_SAMPLES, and `check_verify_maps_args`.  It loads no
submodule and no numpy, so `cli` and `reports` take them from here and no
module imports `cli`.
"""

import math

__version__ = "0.1.0"

#: The most samples verify-maps takes (10^6: 9.5-13 s and 30 MB, 2-vCPU VM).
MAX_SAMPLES = 10**6

#: The most decimal digits of an integer the CLI reads: a chain entry and the
#: lens parameter p of `plumb`, each number in `strata`'s lambda, its exponent
#: and its numerator and denominator, `links`' m and k, and `verify-maps`'
#: seed.  CPython writes no int of more than 4,300 digits as text; the largest
#: written from inputs within this limit, such as an area of 1 + lambda - k,
#: stays below that.
MAX_DIGITS = 4000


def check_verify_maps_args(samples: int, seed: int, tol: float):
    """Raise ValueError on verify-maps arguments out of range.  It needs no
    numpy, so `cli.run` refuses them before `projective_maps` loads."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples {samples} is above the limit {MAX_SAMPLES}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed >= 10**MAX_DIGITS:
        raise ValueError(f"seed has more than {MAX_DIGITS} digits, the limit")
