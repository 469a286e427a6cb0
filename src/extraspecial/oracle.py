"""Brute-force oracles, independent of the closed-form parametrizations.

Three separate recomputation routes:

  * generator-image search: enumerate candidate images for the standard
    generators, keep those satisfying the defining relations (von Dyck),
    and rebuild the full map from normal forms.  No block matrices, no
    quadratic correction terms.
  * matrix scans: count 2x2 and 4x4 matrices over F_p by the value of the
    induced Gram form against the standard symplectic form, via pairing
    tables rather than the similitude parametrization.
  * subspace scans: walk reduced-row-echelon cells and test isotropy and
    hyperplane membership directly; the surjection scan tests every
    k x dim matrix for full rank, in numpy blocks of candidates.

Caps guard every scan; CapExceeded is raised before work starts when the
search space is out of reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .config import cap
from .errors import CapExceeded, ContextError
from .groups import ES1, ES2, Group

NULL_FORM = "null"
SCALAR_FORM = "scalar"
FIXED_FORM = "fixed"


# ---------------------------------------------------------------------------
# presentations and generator-image homomorphism search

@dataclass(frozen=True)
class PresentationSpec:
    """Generators with orders plus relation word pairs (lhs = rhs).

    A word is a tuple of (generator index, exponent) tokens; generator i
    is x_{i+1} for i < n and y_{i-n+1} for i >= n.
    """
    kind: str
    p: int
    n: int
    gen_orders: tuple
    relations: tuple


def _comm(a: int, b: int) -> tuple:
    return ((a, 1), (b, 1), (a, -1), (b, -1))


def presentation(g: Group) -> PresentationSpec:
    p, n = g.p, g.n
    gens = 2 * n
    rels = []
    if g.kind == ES1:
        orders = (p,) * gens
        z = _comm(0, n)
        for i in range(gens):
            rels.append((((i, p),), ()))
        for i in range(n):
            for j in range(i + 1, n):
                rels.append((_comm(i, j), ()))
                rels.append((_comm(n + i, n + j), ()))
        for i in range(n):
            for j in range(n):
                if i != j:
                    rels.append((_comm(i, n + j), ()))
        for i in range(1, n):
            rels.append((_comm(i, n + i), z))
        # commutator central and of order p: makes the presented group
        # class 2 of order p^(2n+1), so relation-checking is sufficient
        for i in range(gens):
            rels.append((z + ((i, 1),) + _comm(n, 0) + ((i, -1),), ()))
        rels.append((z * p, ()))
    elif g.kind == ES2:
        orders = (p * p,) + (p,) * (gens - 1)
        z = ((0, p),)
        rels.append((((0, p * p),), ()))
        for i in range(1, n):
            rels.append((((i, p),), ()))
        for j in range(n):
            rels.append((((n + j, p),), ()))
        for i in range(n):
            for j in range(i + 1, n):
                rels.append((_comm(i, j), ()))
                rels.append((_comm(n + i, n + j), ()))
        for i in range(n):
            for j in range(n):
                if i != j:
                    rels.append((_comm(i, n + j), ()))
        for i in range(n):
            rels.append((_comm(i, n + i), z))
        for i in range(gens):
            rels.append((((0, p), (i, 1), (0, -p), (i, -1)), ()))
    else:
        raise ContextError(f"presentations cover es1/es2, got {g.gid}")
    return PresentationSpec(g.kind, p, n, orders, tuple(rels))


def eval_word(g: Group, images: tuple, word: tuple) -> tuple:
    acc = (0,) * len(g.ranges)
    for gi, e in word:
        acc = g.mul(acc, g.power(images[gi], e))
    return acc


def satisfies_relations(g: Group, pres: PresentationSpec, images: tuple) -> bool:
    for lhs, rhs in pres.relations:
        if eval_word(g, images, lhs) != eval_word(g, images, rhs):
            return False
    return True


def enumerate_homs_by_generators(g: Group, limit: int | None = None):
    """Yield generator-image tuples of every endomorphism of g.

    Blind search over all |G|^(2n) candidate tuples; feasible for the
    desk-scale groups only.
    """
    pres = presentation(g)
    gens = 2 * g.n
    space = g.size ** gens
    ceiling = cap("HOM_CAP") if limit is None else limit
    if space > ceiling:
        raise CapExceeded(f"homomorphism search space {space} exceeds {ceiling}")
    elems = list(g.elements())
    for images in product(elems, repeat=gens):
        if satisfies_relations(g, pres, images):
            yield images


def hom_table(g: Group, images: tuple) -> np.ndarray:
    """Full map table (index -> index) from generator images, via normal forms.

    Every element is the word prod x_i^{u_i} prod y_j^{w_j} z^t for an
    exponent t read off the coordinates, so the image is the same word in
    the generator images.  This route never touches the parametrization.
    """
    p, n = g.p, g.n

    def powers(x, count):
        out = [(0,) * len(g.ranges)]
        for _ in range(count - 1):
            out.append(g.mul(out[-1], x))
        return out

    if g.kind == ES1:
        xp = [powers(images[i], p) for i in range(n)]
        yp = [powers(images[n + j], p) for j in range(n)]
        zp = powers(g.commutator(images[0], images[n]), p)
    elif g.kind == ES2:
        xp = [powers(images[0], p * p)] + [powers(images[i], p) for i in range(1, n)]
        yp = [powers(images[n + j], p) for j in range(n)]
        zp = powers(g.power(images[0], p), p)
    else:
        raise ContextError(f"oracle tables cover es1/es2, got {g.gid}")

    table = np.empty(g.size, dtype=np.int64)
    for idx, c in enumerate(g.elements()):
        if g.kind == ES1:
            u, w = c[:n], c[n:2 * n]
            t = (c[2 * n] - sum(a * b for a, b in zip(u, w))) % p
        else:
            u, w = c[:n], c[n:]
            t = (-(w[0] * (u[0] % p) + sum(a * b for a, b in zip(u[1:], w[1:])))) % p
        acc = xp[0][c[0]]
        for i in range(1, n):
            acc = g.mul(acc, xp[i][c[i]])
        for j in range(n):
            acc = g.mul(acc, yp[j][c[n + j]])
        acc = g.mul(acc, zp[t])
        table[idx] = g.index(acc)
    return table


def mult_table(g: Group) -> np.ndarray:
    """Index-level multiplication table, cached on the group; small groups only."""
    cached = getattr(g, "_mult_table", None)
    if cached is not None:
        return cached
    if g.size > 2048:
        raise CapExceeded(f"multiplication table for {g.gid} with {g.size} elements")
    elems = list(g.elements())
    idx = {c: i for i, c in enumerate(elems)}
    M = np.empty((g.size, g.size), dtype=np.int32)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            M[i, j] = idx[g.mul(a, b)]
    g._mult_table = M
    return M


def is_hom_table(g: Group, table: np.ndarray) -> bool:
    """sigma(ab) = sigma(a) sigma(b) for all pairs, via the full mult table."""
    M = mult_table(g)
    T = np.asarray(table)
    return bool(np.array_equal(T[M], M[np.ix_(T, T)]))


def hom_check_on_generators(g: Group, table: np.ndarray) -> bool:
    """sigma(a h) = sigma(a) sigma(h) for every a and every generator h.

    Generators generate, so by induction on word length this already forces
    the full homomorphism property; unlike is_hom_table it needs no N x N
    table and stays usable at |G| in the tens of thousands.
    """
    T = np.asarray(table)
    C = g.coords_matrix()
    gens = [x.coords for x in g.generators()]
    right = getattr(g, "_gen_right_mul", None)
    if right is None:
        right = []
        for h in gens:
            col = np.empty(g.size, dtype=np.int64)
            for i, a in enumerate(g.elements()):
                col[i] = g.index(g.mul(a, h))
            right.append(col)
        g._gen_right_mul = right
    radix = np.array(g.radices, dtype=np.int64)
    CT = C[T]
    for jh, col in enumerate(right):
        lhs = T[col]
        hc = CT[g.index(gens[jh])]
        prod_coords = _bulk_right_mul(g, CT, hc)
        rhs = prod_coords @ radix
        if not np.array_equal(lhs, rhs):
            return False
    return True


def _bulk_right_mul(g: Group, A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coordinates of a*c for every row a of A, vectorized over rows."""
    p, n = g.p, g.n
    out = (A + c[None, :]) % np.array(g.ranges, dtype=np.int64)[None, :]
    if g.kind == ES1:
        cross = (A[:, :n] @ c[n:2 * n]) % p
        out[:, 2 * n] = (A[:, 2 * n] + c[2 * n] + cross) % p
    elif g.kind == ES2:
        ubar = A[:, 0] % p
        cross = A[:, 1:n] @ c[n + 1:] if n > 1 else 0
        out[:, 0] = (A[:, 0] + c[0] + p * (c[n] * ubar + cross)) % (p * p)
    else:
        raise ContextError(f"bulk multiplication covers es1/es2, got {g.gid}")
    return out


# ---------------------------------------------------------------------------
# matrix scans via pairing tables

def _vectors(dim: int, p: int) -> np.ndarray:
    """All of F_p^dim in radix order."""
    return np.array(list(product(range(p), repeat=dim)), dtype=np.int64)


def _pairing_table(V: np.ndarray, p: int) -> np.ndarray:
    """P[a, b] = <<v_a, v_b>> for the standard symplectic pairing."""
    h = V.shape[1] // 2
    return (V[:, :h] @ V[:, h:].T - V[:, h:] @ V[:, :h].T) % p


def _column_pools(V: np.ndarray, dim: int, s: int, image_in_v1: bool,
                  es2_constrained: bool) -> list:
    base = np.ones(len(V), dtype=bool)
    if image_in_v1:
        base = base & (V[:, 0] == 0)
    pools = [base.copy() for _ in range(dim)]
    if es2_constrained:
        # first row of the x-block is (s, 0, ..), first row of the y-block is 0
        pools[0] = pools[0] & (V[:, 0] == s)
        for j in range(1, dim):
            pools[j] = pools[j] & (V[:, 0] == 0)
    return pools


def _count_dim2(V: np.ndarray, pools: list, s: int, p: int) -> int:
    # rowwise so no p^2 x p^2 pairing table is ever held
    A = V[pools[0]]
    B = V[pools[1]]
    if len(A) == 0 or len(B) == 0:
        return 0
    total = 0
    for a in A:
        vals = (a[0] * B[:, 1] - a[1] * B[:, 0]) % p
        total += int(np.count_nonzero(vals == s))
    return total


def _count_dim4(P: np.ndarray, pools: list, s: int, c1_slice=None) -> int:
    # columns (c1, c2 | c3, c4); Gram against Delta forces <<c1,c3>> = <<c2,c4>> = s
    # and the other four ordered pairs to 0
    Z = P == 0
    L = P == s
    Lint = L.astype(np.int64)
    idx1 = np.flatnonzero(pools[0])
    if c1_slice is not None:
        idx1 = idx1[c1_slice]
    total = 0
    for c1 in idx1:
        z1 = Z[c1]
        cand3 = np.flatnonzero(pools[2] & L[c1])
        for c3 in cand3:
            pool_zero = z1 & Z[c3]
            m2 = (pools[1] & pool_zero).astype(np.int64)
            m4 = (pools[3] & pool_zero).astype(np.int64)
            total += int(m2 @ (Lint @ m4))
    return total


def _scan4_chunk(args):
    dim, p, s, image_in_v1, es2_constrained, lo, hi = args
    V = _vectors(dim, p)
    P = _pairing_table(V, p)
    pools = _column_pools(V, dim, s, image_in_v1, es2_constrained)
    return _count_dim4(P, pools, s, slice(lo, hi))


def scan_matrices(dim: int, p: int, predicate: str, l: int | None = None,
                  image_in_v1: bool = False, es2_constrained: bool = False,
                  limit: int | None = None, jobs: int = 1) -> int:
    """Count dim x dim matrices N over F_p with N^t Delta N prescribed.

    predicate: NULL_FORM for the zero form, FIXED_FORM for l * Delta with
    the given l, SCALAR_FORM for l * Delta with l arbitrary (zero included).
    image_in_v1 restricts all columns to the hyperplane v[0] = 0;
    es2_constrained pins the first row to (l, 0, ..., 0 | 0, ..., 0).
    """
    if dim not in (2, 4) or dim % 2:
        raise ContextError(f"matrix scans cover dim 2 and 4, got {dim}")
    if predicate not in (NULL_FORM, SCALAR_FORM, FIXED_FORM):
        raise ContextError(f"unknown scan predicate {predicate!r}")
    if predicate == FIXED_FORM:
        if l is None:
            raise ContextError("FIXED_FORM needs the multiplier l")
        svals = [l % p]
    elif predicate == NULL_FORM:
        svals = [0]
    else:
        svals = list(range(p))
    space = p ** (dim * dim)
    ceiling = cap("SCAN_CAP") if limit is None else limit
    if space > ceiling:
        raise CapExceeded(f"matrix scan space {space} exceeds {ceiling}")

    V = _vectors(dim, p)
    P = _pairing_table(V, p) if dim == 4 else None
    total = 0
    for s in svals:
        pools = _column_pools(V, dim, s, image_in_v1, es2_constrained)
        if dim == 2:
            total += _count_dim2(V, pools, s, p)
        elif jobs <= 1:
            total += _count_dim4(P, pools, s)
        else:
            from concurrent.futures import ProcessPoolExecutor
            m = int(np.count_nonzero(pools[0]))
            step = max(1, -(-m // jobs))
            chunks = [(dim, p, s, image_in_v1, es2_constrained, lo, min(lo + step, m))
                      for lo in range(0, m, step)]
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                total += sum(ex.map(_scan4_chunk, chunks))
    return total


# ---------------------------------------------------------------------------
# subspace scans via echelon cells

def _pairing_int(v: tuple, w: tuple, p: int) -> int:
    h = len(v) // 2
    acc = 0
    for i in range(h):
        acc += v[i] * w[h + i] - v[h + i] * w[i]
    return acc % p


def scan_subspaces(dim: int, p: int, k: int, isotropic: bool = False,
                   inside_v1: bool = False, limit: int | None = None) -> int:
    """Count k-dim subspaces of F_p^dim by walking echelon cells.

    Every subspace has a unique reduced-echelon basis, indexed by the pivot
    column set and the free entries, so the walk hits each exactly once.
    """
    from .modp import p_binomial

    if k < 0 or k > dim:
        return 0
    if k == 0:
        return 1
    space = p_binomial(dim, k, p)
    ceiling = cap("SUBSPACE_CAP") if limit is None else limit
    if space > ceiling:
        raise CapExceeded(f"subspace scan over {space} subspaces exceeds {ceiling}")
    total = 0
    for pivots in combinations(range(dim), k):
        if inside_v1 and pivots[0] == 0:
            # an echelon basis row with pivot in column 0 starts with 1
            continue
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, dim)
                if j not in pivots]
        for assignment in product(range(p), repeat=len(free)):
            rows = [[0] * dim for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), val in zip(free, assignment):
                rows[i][j] = val
            basis = [tuple(r) for r in rows]
            if isotropic and any(_pairing_int(basis[a], basis[b], p)
                                 for a in range(k) for b in range(a + 1, k)):
                continue
            total += 1
    return total


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


def scan_surjections(dim: int, p: int, k: int, limit: int | None = None) -> int:
    """Count k x dim matrices of full rank k, i.e. surjections onto F_p^k.

    Every candidate matrix M is tested: its rows are independent iff
    c M != 0 for a representative c of every line of F_p^k.  Candidates
    are walked in radix order, one numpy block per assignment of the
    leading cells, the trailing cells taken from one table of all p^t
    assignments.
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    cells = k * dim
    space = p ** cells
    ceiling = cap("SCAN_CAP") if limit is None else limit
    if space > ceiling:
        raise CapExceeded(f"surjection scan space {space} exceeds {ceiling}")
    if k > dim:
        # more rows than columns are always dependent; this also keeps the
        # line table (p^k - 1)/(p - 1) below the square root of the space
        return 0
    t = 0
    while t < cells and p ** (t + 1) <= _SURJECTION_BLOCK:
        t += 1
    lead = cells - t
    block = np.empty((p ** t, cells), dtype=np.int64)
    block[:, lead:] = _vectors(t, p)
    lines = _projective_lines(k, p)
    total = 0
    for prefix in product(range(p), repeat=lead):
        block[:, :lead] = prefix
        images = (lines @ block.reshape(-1, k, dim)) % p
        dependent = (images == 0).all(axis=2).any(axis=1)
        total += len(block) - int(np.count_nonzero(dependent))
    return total


# ---------------------------------------------------------------------------
# quotient-level counts feeding the aut/end oracles

def sigma_scan_count(kind: str, p: int, n: int, invertible_only: bool,
                     jobs: int = 1) -> int:
    """Number of admissible quotient matrices, by pairing-table scans.

    es1 admits every similitude; es2 additionally pins the first row.  The
    full aut/end counts follow by the p^{2n} multiplier for the central
    parameters, which the caller applies.
    """
    dim = 2 * n
    constrained = kind == ES2
    if kind not in (ES1, ES2):
        raise ContextError(f"sigma counts cover es1/es2, got {kind!r}")
    lvals = range(1, p) if invertible_only else range(p)
    return sum(scan_matrices(dim, p, FIXED_FORM, l=l,
                             es2_constrained=constrained, jobs=jobs)
               for l in lvals)
