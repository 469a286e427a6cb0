"""Size caps for enumerations and scans, overridable via environment variables.

Every cap guards a potentially exponential loop.  Defaults cover the desk
scales exercised by the test suite: (p, n) in {(3,1), (5,1), (3,2)}.

Environment overrides (integers):
    EXTRASPECIAL_ELEMENT_CAP    group element enumeration      (default 10**7)
    EXTRASPECIAL_MORPHISM_CAP   endo/automorphism enumeration  (default 10**6)
    EXTRASPECIAL_HOM_CAP        generator-image candidates     (default 10**9)
    EXTRASPECIAL_SCAN_CAP       matrix scans, p^(4n^2) space,  (default 10**8)
                                surjection scans, p^(2nk) space
    EXTRASPECIAL_SUBSPACE_CAP   subspace scans, one echelon    (default 10**7)
                                matrix per k-subspace of F_p^dim
"""

import os

from .errors import ParseError

_DEFAULTS = {
    "ELEMENT_CAP": 10**7,
    "MORPHISM_CAP": 10**6,
    "HOM_CAP": 10**9,
    "SCAN_CAP": 10**8,
    "SUBSPACE_CAP": 10**7,
}


def cap(name):
    """Return the configured cap, honoring EXTRASPECIAL_<name> overrides.

    A malformed override raises ParseError (CLI exit code 2).
    """
    if name not in _DEFAULTS:
        raise KeyError(name)
    raw = os.environ.get(f"EXTRASPECIAL_{name}")
    if raw is None:
        return _DEFAULTS[name]
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"EXTRASPECIAL_{name} wants an integer, got {raw!r}") from None
