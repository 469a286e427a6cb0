"""Brute-force oracles, independent of the closed-form parametrizations.

Three separate recomputation routes:

  * generator-image search: assign images to the standard generators one
    at a time on the tuple law, cut every prefix that fails a defining
    relation of its highest generator, and yield the tuples satisfying them
    all (von Dyck), one per endomorphism.  The relations are read off the
    group's data (power form, cocycle), not spelled per kind; the spelled
    ones are their test reference.  A functools cache of Group.mul per
    search hands each ordered pair of elements to it once, and powers are
    computed on first use through that cache.  No block matrices, no
    quadratic correction terms, no batched law.
  * matrix scans: count the 2x2 or 4x4 matrices N over F_p with
    N^t Delta N = s Delta for one Gram scalar s (s = 0 the zero form), by
    one count over the pairing table rather than the similitude
    parametrization.  Each Gram class (dim, p, s, es2 first-row pin) is
    counted once per process and memoized, so every later scan of it is a
    lookup.
  * subspace scans: count isotropic subspaces, inside V_1 if asked, by
    one walk over the reduced-echelon cells, in coordinates along the
    isotropic flag, on numpy blocks of echelon matrices; cell_polynomial
    certifies from the same walk that each isotropic count is a polynomial
    in p with non-negative coefficients, one p^d per cell.  The surjection
    scan tests every k x dim matrix for full rank against every line of
    F_p^k: the trailing cells' line images are one table per scan, each
    leading assignment adds its offset, and coordinates compare in place.

Caps guard every scan: config.charge refuses before work starts when the
search space is out of reach.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import combinations, product

import numpy as np

from .config import charge
from .errors import ContextError, check
from .groups import Group, omega_nonzero, row_blocks
from .modp import inv_mod, p_binomial


# ---------------------------------------------------------------------------
# presentations and generator-image homomorphism search

def _comm(a: int, b: int) -> tuple:
    return ((a, 1), (b, 1), (a, -1), (b, -1))


def presentation(g: Group) -> tuple:
    """The defining relations as (lhs, rhs) word pairs, read off the group's
    data.  A word is (generator index, exponent) tokens, generator i being
    x_{i+1} for i < n and y_{i-n+1} after.

    With the power form omega and the cocycle M of the group law, and z the
    central generator:
      x_i^p = z^(omega_i) for every generator (y_j after x_n);
      [g_i, g_j] = z^((M - M^t)_ij) for i < j;
      z central, and z^p = 1.
    z is the word x_1^(p/omega_1) where omega_1 != 0 (es2) and [x_1, y_1]
    otherwise (es1); a relation whose two sides are one word is dropped.
    z central and of order p make the presented group class 2 of order
    p^(2n+1), so relation-checking is sufficient.
    """
    p, n, omega, M = g.p, g.n, g.power_form(), g.cocycle
    gens = 2 * n
    z = ((0, p * inv_mod(omega[0], p)),) if omega[0] else _comm(0, n)
    rels = [(((i, p),), z * w) for i, w in enumerate(omega)]
    rels += [(_comm(i, j), z * ((M[i][j] - M[j][i]) % p))
             for i in range(gens) for j in range(i + 1, gens)]
    z_inv = tuple((gi, -e) for gi, e in reversed(z))
    rels += [(z + ((i, 1),) + z_inv + ((i, -1),), ()) for i in range(gens)]
    rels.append((z * p, ()))
    return tuple(r for r in rels if r[0] != r[1])


def eval_word(g: Group, images: tuple, word: tuple, power=None, mul=None) -> tuple:
    """The product of images[i]^e over the word's tokens (i, e).

    power(x, e) gives the factors and mul(a, b) multiplies them, g.power and
    g.mul unless caches are passed; the empty word is the identity.
    """
    if not word:
        return (0,) * len(g.ranges)
    power = power or g.power
    return reduce(mul or g.mul, [power(images[gi], e) for gi, e in word])


def satisfies_relations(g: Group, relations: tuple, images: tuple, power=None, mul=None) -> bool:
    """Whether images satisfy every given relation.  images may be a prefix:
    it needs an image for each generator the relations use."""
    for lhs, rhs in relations:
        if eval_word(g, images, lhs, power, mul) != eval_word(g, images, rhs, power, mul):
            return False
    return True


def _relation_levels(relations: tuple, gens: int) -> list:
    """levels[i]: the relations whose highest generator is i, for i < gens.

    Once images of generators 0..i are fixed, levels[i] is decided; every
    relation sits at exactly one level.
    """
    levels = [[] for _ in range(gens)]
    for rel in relations:
        levels[max(gi for word in rel for gi, _ in word)].append(rel)
    return [tuple(level) for level in levels]


def enumerate_homs_by_generators(g: Group):
    """Yield generator-image tuples of every endomorphism of g, in the order
    of itertools.product over the elements.

    Images are assigned one generator at a time, and each prefix is checked
    against the relations of its level (_relation_levels), so a prefix that
    fails is cut with its whole subtree.  Each search wraps g.mul in its own
    functools cache, so g.mul runs at most once per ordered pair; words are
    products of powers, each computed through that cache on first use per
    element and exponent, and cached too.  The charge to HOM_CAP is the
    full |G|^(2n) candidate space, before any work; it also bounds the
    cache, which holds at most |G|^2 products.  The search stays within
    reach of the desk-scale groups only.
    """
    gens = 2 * g.n
    charge("HOM_CAP", g.size ** gens, f"homomorphism search of {g.gid}")
    levels = _relation_levels(presentation(g), gens)
    mul = lru_cache(maxsize=None)(g.mul)
    elems = list(g.elements())
    identity = (0,) * len(g.ranges)

    @lru_cache(maxsize=None)
    def power(x, e):
        # a chain of products through the cache: g.power calls g.mul
        # directly and would repeat pairs the cache already holds
        return reduce(mul, [g.inv(x) if e < 0 else x] * abs(e), identity)

    def extend(prefix):
        if len(prefix) == gens:
            yield prefix
            return
        relations = levels[len(prefix)]
        for x in elems:
            images = prefix + (x,)
            if satisfies_relations(g, relations, images, power, mul):
                yield from extend(images)

    yield from extend(())


def mult_table(g: Group) -> np.ndarray:
    """Index-level multiplication table, cached on the group; small groups only."""
    cached = getattr(g, "_mult_table", None)
    if cached is not None:
        return cached
    charge("TABLE_CAP", g.size, f"multiplication table for {g.gid}")
    E = g.coords_matrix()
    M = np.empty((g.size, g.size), dtype=np.int32)
    for rows in row_blocks(g.size):
        M[rows] = g.mul_index(E[rows], E)
    g._mult_table = M
    return M


# ---------------------------------------------------------------------------
# matrix scans via pairing tables

def _vectors(dim: int, p: int) -> np.ndarray:
    """All of F_p^dim in radix order."""
    return np.array(list(product(range(p), repeat=dim)), dtype=np.int64)


def _pairing_table(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """P[a, b] = <<A_a, B_b>> for the standard symplectic pairing."""
    h = A.shape[1] // 2
    return (A[:, :h] @ B[:, h:].T - A[:, h:] @ B[:, :h].T) % p


def _count(V: np.ndarray, first: np.ndarray, later: np.ndarray, s: int, p: int) -> int:
    """Matrices with column 1 in `first`, every later column in `later`, and
    Gram form s * Delta.

    With L = (P == s) and Z = (P == 0) on the pairing table P, dim 2 counts
    first^t L later.  Dim 4, columns (c1, c2 | c3, c4), takes one c1 and
    every c3 with <<c1,c3>> = s at once: m = later & Z[c1] & Z[c3] masks
    c2 and c4 alike, and ((m @ L) * m).sum() counts their pairs with
    <<c2,c4>> = s.
    """
    if V.shape[1] == 2:
        # row blocks: at dim 2 the table has as many entries as the raw space
        A, B = V[first], V[later]
        return sum(int(np.count_nonzero(_pairing_table(A[rows], B, p) == s))
                   for rows in row_blocks(len(A)))
    P = _pairing_table(V, V, p)
    Z = P == 0
    L = (P == s).astype(np.float64)
    total = 0
    for c1 in np.flatnonzero(first):
        c3 = np.flatnonzero(later & (P[c1] == s))
        m = (later & Z[c1] & Z[c3]).astype(np.float64)
        # float64 is exact: a partial sum counts (c2, c3, c4) triples for
        # one c1, at most p^12 < 2^53 for every p <= 19
        total += int(((m @ L) * m).sum())
    return total


def scan_matrices(dim: int, p: int, s: int, es2_constrained: bool = False) -> int:
    """Count dim x dim matrices N over F_p with N^t Delta N = s Delta.

    s = 0 is the zero form.  es2_constrained pins the first row to
    (s, 0, ..., 0 | 0, ..., 0), the es2 first-row constraint
    omega sigma = s omega; at s = 0 that puts every column in V_1.

    The cap is charged on the raw space p^(dim^2) on every call; the count
    itself is `_gram_count`, which scans each Gram class once per process,
    so `sigma_scan_count`, `census`, `count` and `verify` share one memo.
    """
    if dim not in (2, 4):
        raise ContextError(f"matrix scans cover dim 2 and 4, got {dim}")
    charge("SCAN_CAP", p ** (dim * dim), f"matrix scan of {dim}x{dim} matrices over F_{p}")
    return _gram_count(dim, p, s % p, es2_constrained)


@lru_cache(maxsize=None)
def _gram_count(dim: int, p: int, s: int, es2_constrained: bool) -> int:
    """Matrices of one Gram class s * Delta, counted once per process.

    The key is the whole class, with s reduced mod p by the caller, so s
    and s + p share one count.  The free class draws every column from
    F_p^dim; the pinned class draws column 1 from {v[0] = s} and the later
    ones from {v[0] = 0}.  The caller charges the scan cap before every
    lookup, hit or miss.
    """
    V = _vectors(dim, p)
    free = np.ones(len(V), dtype=bool)
    first, later = (V[:, 0] == s, V[:, 0] == 0) if es2_constrained else (free, free)
    return _count(V, first, later, s, p)


# ---------------------------------------------------------------------------
# subspace scans via echelon cells

# int64 entries of one block of echelon matrices; a block's arrays stay
# within a few times 16 MiB whatever the shape
_CELL_BLOCK = 1 << 21


def _flag_order(n: int) -> list:
    """Indices of the coordinates (u_1..u_n | w_1..w_n) taken along the
    isotropic flag: w_1..w_n, then u_n..u_1.

    In this order the isotropic echelon cells should be affine spaces (the
    Bruhat cells), which cell_polynomial checks rather than assumes, and
    V_1 = {u_1 = 0} is the last coordinate.
    """
    return list(range(n, 2 * n)) + list(range(n - 1, -1, -1))


def _cells(dim: int, p: int, k: int, inside_v1: bool = False):
    """Yield (pivots, count) for every reduced-echelon cell of k x dim matrices.

    A cell is a pivot set; its echelon matrices have a 1 at each pivot,
    zeros left of it and in the other pivot columns, and free entries
    elsewhere.  Every assignment of the free entries is built, a numpy
    block at a time, and count keeps those whose rows span an isotropic
    subspace (zero Gram matrix), inside V_1 if asked.  Coordinates run
    along _flag_order.  Every subspace has exactly one echelon basis, so
    the walk visits p_binomial(dim, k, p) matrices, charged to
    SUBSPACE_CAP before any block is built.
    """
    if not 0 <= k <= dim:
        return
    if dim % 2:
        raise ContextError(f"isotropic scans need an even dim, got {dim}")
    charge("SUBSPACE_CAP", p_binomial(dim, k, p),
           f"subspace scan of {k}-subspaces of F_{p}^{dim}")
    order = _flag_order(dim // 2)
    delta = np.kron([[0, 1], [-1, 0]], np.eye(dim // 2, dtype=np.int64))
    form = delta[np.ix_(order, order)]  # the Gram matrix of the flag basis
    v1 = order.index(0)
    rows = max(1, _CELL_BLOCK // max(1, k * dim))
    for pivots in combinations(range(dim), k):
        base = np.zeros((k, dim), dtype=np.int64)
        base[range(k), pivots] = 1
        free = [i * dim + j for i in range(k) for j in range(pivots[i] + 1, dim)
                if j not in pivots]
        radix = p ** np.arange(len(free) - 1, -1, -1, dtype=np.int64)
        total = p ** len(free)
        count = 0
        for start in range(0, total, rows):
            idx = np.arange(start, min(start + rows, total), dtype=np.int64)
            M = np.tile(base.reshape(1, -1), (len(idx), 1))
            M[:, free] = idx[:, None] // radix % p
            M = M.reshape(len(idx), k, dim)
            # int64 is exact: form's entries are 0 and +-1, so a Gram entry
            # sums dim products of size below p^2
            keep = ~(M @ form @ M.transpose(0, 2, 1) % p).any(axis=(1, 2))
            if inside_v1:
                keep &= ~M[:, :, v1].any(axis=1)
            count += int(np.count_nonzero(keep))
        yield pivots, count


def scan_subspaces(dim: int, p: int, k: int, inside_v1: bool = False) -> int:
    """Count isotropic k-dim subspaces of F_p^dim, optionally inside V_1, by
    walking the echelon cells."""
    return sum(count for _, count in _cells(dim, p, k, inside_v1))


def cell_polynomial(n: int, k: int, inside_v1: bool = False, primes=(3, 5)) -> tuple:
    """Coefficients c_d of the isotropic k-subspace count of F_p^2n (inside
    V_1 if asked) as sum_d c_d p^d, certified cell by cell.

    Every non-empty echelon cell must hold exactly p^d subspaces, with one
    d at every prime, or errors.check fails; c_d is the number of cells of
    dimension d, so the coefficients are non-negative integers.
    """
    if len(set(primes)) < 2:
        raise ContextError(f"the cell certificate compares two or more primes, got {primes}")
    walks = [dict(_cells(2 * n, p, k, inside_v1)) for p in primes]
    coeffs = []
    for pivots in walks[0]:
        counts = [walk[pivots] for walk in walks]
        if any(counts):
            d = round(math.log(max(counts[0], 1), primes[0]))
            check(counts == [p ** d for p in primes],
                  f"cell {pivots} of (n={n}, k={k}) holds {counts} at p = {primes}, "
                  "not one power p^d")
            coeffs += [0] * (d + 1 - len(coeffs))
            coeffs[d] += 1
    return tuple(coeffs)


# cells of a candidate matrix filled from one precomputed tail table: the
# largest t with p^t <= this many candidates per numpy block
_SURJECTION_BLOCK = 1024


def _projective_lines(k: int, p: int) -> np.ndarray:
    """One vector per line of F_p^k, its first nonzero entry 1: (p^k-1)/(p-1) rows."""
    reps = []
    for lead in range(k):
        for rest in product(range(p), repeat=k - lead - 1):
            reps.append((0,) * lead + (1,) + rest)
    return np.array(reps, dtype=np.int64).reshape(-1, k)


def scan_surjections(dim: int, p: int, k: int) -> int:
    """Count k x dim matrices of full rank k, i.e. surjections onto F_p^k.

    Every candidate matrix M is tested: its rows are independent iff
    c M != 0 for a representative c of every line of F_p^k.  M splits
    into leading and trailing cells, c M = c M_lead + c M_trail, so the
    images c M_trail of all p^t trailing assignments are one table built
    once per scan, and each leading assignment adds only its offset
    -c M_lead: a candidate is dependent iff some line's trailing image
    equals that line's offset, coordinate by coordinate ANDed in place on
    views of the table.  The cap is charged on that work, p^(k dim)
    candidates times (p^k - 1)/(p - 1) lines, before any table is built.
    """
    if k < 0 or k > dim:
        # more rows than columns are always dependent; this also keeps the
        # line table (p^k - 1)/(p - 1) below the square root of the space
        return 0
    if k == 0:
        return 1
    cells = k * dim
    n_lines = (p ** k - 1) // (p - 1)
    charge("SCAN_CAP", p ** cells * n_lines,
           f"surjection scan of {k}x{dim} matrices over F_{p} against {n_lines} lines")
    t = 0
    while t < cells and p ** (t + 1) <= _SURJECTION_BLOCK:
        t += 1
    lead = cells - t
    lines = _projective_lines(k, p)
    tails = np.zeros((p ** t, cells), dtype=np.int64)
    tails[:, lead:] = _vectors(t, p)
    trail = (lines @ tails.reshape(-1, k, dim)) % p
    head = np.zeros(cells, dtype=np.int64)
    total = 0
    for prefix in product(range(p), repeat=lead):
        head[:lead] = prefix
        offset = -(lines @ head.reshape(k, dim)) % p
        hit = trail[:, :, 0] == offset[:, 0]
        for j in range(1, dim):
            hit &= trail[:, :, j] == offset[:, j]
        total += len(trail) - int(np.count_nonzero(hit.any(axis=1)))
    return total


# ---------------------------------------------------------------------------
# quotient-level counts feeding the aut/end oracles

def sigma_scan_count(kind: str, p: int, n: int, invertible_only: bool) -> int:
    """Number of admissible quotient matrices, by pairing-table scans.

    es1 admits every similitude; a nonzero power form (es2) pins the first
    row.  The full aut/end counts follow by the p^{2n} multiplier for the
    central parameters, which the caller applies.
    """
    constrained = omega_nonzero(kind)
    return sum(scan_matrices(2 * n, p, s, constrained)
               for s in (range(1, p) if invertible_only else range(p)))
