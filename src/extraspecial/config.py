"""Every size limit of the package, and the one place that refuses work past one.

Each limit guards a potentially exponential loop or a large allocation; the
defaults cover the desk scales of the test suite, (p, n) in {(3,1), (5,1),
(3,2)}.  The five caps marked env may be overridden by a count (an
`integer` >= 0) in EXTRASPECIAL_<NAME>; the other four are fixed.

    ELEMENT_CAP    10**7   env  group elements enumerated
    MORPHISM_CAP   10**6   env  endomorphisms or automorphisms walked
    HOM_CAP        10**9   env  generator-image candidates, |G|^(2n)
    SCAN_CAP       10**8   env  matrices in a matrix scan, p^(dim^2), or
                                surjection candidates x lines, p^(k dim) (p^k-1)/(p-1)
    SUBSPACE_CAP   10**7   env  k-subspaces of F_p^dim in a subspace scan
    TABLE_CAP      2048         elements of a group given N x N tables
    PAIRING_CELLS  2**25        cells p^4n of the frontier's pairing table
    INDEX_LIMIT    2**63        elements whose indices int64 can hold
    OUTPUT_DIGITS  200000       digits of the answers of one CLI call

`charge` is the only site that raises CapExceeded, before the work it
guards starts, in one format: `<what>: <amount> > <NAME> = <ceiling>
(EXTRASPECIAL_<NAME>)`, the parenthesis for env caps only, e.g. `matrix
scan of 4x4 matrices over F_5: 152587890625 > SCAN_CAP = 100000000
(EXTRASPECIAL_SCAN_CAP)`.  A ceiling the caller passes (the `limit=` of
partial_order_report, image_sets and family_images) is marked `(limit=)`.
"""

import os

from .errors import CapExceeded, ParseError

# name -> (default ceiling, overridable by EXTRASPECIAL_<name>)
LIMITS = {
    "ELEMENT_CAP": (10**7, True),
    "MORPHISM_CAP": (10**6, True),
    "HOM_CAP": (10**9, True),
    "SCAN_CAP": (10**8, True),
    "SUBSPACE_CAP": (10**7, True),
    "TABLE_CAP": (2048, False),
    "PAIRING_CELLS": (1 << 25, False),
    "INDEX_LIMIT": (1 << 63, False),
    "OUTPUT_DIGITS": (200_000, False),
}


def integer(text: str) -> int:
    """An optional sign and the ASCII digits 0-9, with whitespace around them.
    int() alone would also take 1_0 and non-ASCII digits; it rejects a doubled sign."""
    digits = text.strip().lstrip("+-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def cap(name):
    """The ceiling of one limit, or its EXTRASPECIAL_<name> override where the
    table allows one; an override that is no count raises ParseError (exit 2)."""
    default, overridable = LIMITS[name]
    raw = os.environ.get(f"EXTRASPECIAL_{name}") if overridable else None
    if raw is None:
        return default
    try:
        value = integer(raw)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise ParseError(f"EXTRASPECIAL_{name} wants a count, got {raw!r}")


def charge(name, amount, what, ceiling=None):
    """Refuse `what` with CapExceeded when amount passes the limit `name`: its
    configured ceiling, or the caller's own `ceiling`."""
    note = " (limit=)" if ceiling is not None else (
        f" (EXTRASPECIAL_{name})" if LIMITS[name][1] else "")
    ceiling = cap(name) if ceiling is None else ceiling
    if amount > ceiling:
        raise CapExceeded(f"{what}: {amount} > {name} = {ceiling}{note}")
