"""Exact symbolic computations for the rank-one free boson, its charge-zero
even subalgebra, the twisted module, and their complete fusion rules.

Everything is computed over exact rationals (optionally extended by a
square root of the squared charge); there is no floating point anywhere.
"""

import os
from typing import Optional, Tuple

__version__ = "0.1.0"

# shared by the command line and its verify suites (voaf.suites), which
# must not import voaf.cli: under `python -m voaf.cli` that runs cli twice

# (check name, passed, detail), one line of `voaf verify`
Check = Tuple[str, bool, str]


def _cutoff(given: Optional[int], default: int) -> int:
    """The given cutoff, else $VOAF_CUTOFF, else the default.  A negative
    cutoff, or a $VOAF_CUTOFF that is not an integer, is a usage error."""
    env = os.environ.get("VOAF_CUTOFF")
    if given is not None:
        cut = given
    elif env is None:
        cut = default
    else:
        try:
            cut = int(env)
        except ValueError:
            raise ValueError("VOAF_CUTOFF must be an integer, got %r" % env) from None
    if cut < 0:
        raise ValueError("cutoff must be nonnegative, got %d" % cut)
    return cut
