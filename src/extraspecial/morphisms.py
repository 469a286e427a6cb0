"""Endomorphisms of the es1 and es2 groups from block-matrix parameters.

Every endomorphism of es1(p,n) is given by a quadruple of n x n blocks
(A, B, C, D) over F_p whose stacked matrix sigma = [[A, C], [D, B]] is a
scalar symplectic similitude (sigma^t Delta sigma = l Delta, l = 0 allowed),
together with two linear functionals alpha, beta on F_p^n:

    (u, w, z) -> (Au + Cw, Du + Bw,
                  alpha(u) + beta(w) + l z
                  + (1/2) u^t (A^t D) u + (1/2) w^t (C^t B) w + w^t (C^t D) u)

and it is an automorphism exactly when l != 0.

For es2(p,n) the same block shape acts on utilde = (u_1 bar; u) and
wtilde = (w_1; w), constrained by sigma^t Delta sigma = a_11 Delta together
with a_12 = .. = a_1n = 0 and c_11 = .. = c_1n = 0 (so the similitude scalar
is pinned to the corner entry a_11), a functional alpha on the last n-1
u-coordinates, a functional beta on wtilde, and a lift a in Z/p^2 of a_11:

    (u_1, u, w_1, w) -> (a u_1 + p s, pi(A utilde + C wtilde), D utilde + B wtilde)

with s the same quadratic expression in (utilde, wtilde) and pi dropping the
first coordinate.  It is an automorphism exactly when a is a unit.

The composite of two parametrized maps is recovered from generator images
rather than symbolic block algebra: one code path serves composition, inner
automorphisms, and parameter extraction alike.
"""

from __future__ import annotations

from itertools import product

from .config import cap
from .errors import (CapExceeded, ContextError, DimensionError,
                     MorphismValidationError, check)
from .groups import ES1, ES2, Element, Group, group, row_blocks
from .modp import Mat, dot
from .symplectic import delta_matrix, pairing, symp_scalar_test


class Morphism:
    """A parametrized endomorphism of one es1 or es2 group."""

    __slots__ = ("group", "A", "B", "C", "D", "alpha", "beta", "scalar",
                 "_aux", "_table")

    def __init__(self, g: Group, A: Mat, B: Mat, C: Mat, D: Mat,
                 alpha: tuple, beta: tuple, scalar: int, aux=None):
        self.group = g
        self.A, self.B, self.C, self.D = A, B, C, D
        self.alpha = alpha
        self.beta = beta
        self.scalar = scalar  # l for es1, the central lift a for es2
        self._aux = aux  # (A^t D, C^t B, C^t D), shared across enumeration
        self._table = None

    @property
    def is_automorphism(self) -> bool:
        return self.scalar % self.group.p != 0

    @property
    def scalar_mod_p(self) -> int:
        """The similitude scalar of the induced quotient matrix."""
        return self.scalar % self.group.p

    def aux(self):
        if self._aux is None:
            At, Ct = self.A.transpose(), self.C.transpose()
            self._aux = (At * self.D, Ct * self.B, Ct * self.D)
        return self._aux

    def sigma(self) -> Mat:
        rows = [self.A.rows[i] + self.C.rows[i] for i in range(self.group.n)]
        rows += [self.D.rows[i] + self.B.rows[i] for i in range(self.group.n)]
        return Mat(self.group.p, rows)

    def apply_coords(self, c: tuple) -> tuple:
        g = self.group
        p, n, h = g.p, g.n, g.half
        AtD, CtB, CtD = self.aux()
        if g.kind == ES1:
            u, w, z = c[:n], c[n:2 * n], c[2 * n]
            u2 = tuple((x + y) % p for x, y in zip(self.A.mul_vec(u), self.C.mul_vec(w)))
            w2 = tuple((x + y) % p for x, y in zip(self.D.mul_vec(u), self.B.mul_vec(w)))
            z2 = (dot(self.alpha, u, p) + dot(self.beta, w, p) + self.scalar * z
                  + h * (dot(u, AtD.mul_vec(u), p) + dot(w, CtB.mul_vec(w), p))
                  + dot(w, CtD.mul_vec(u), p)) % p
            return u2 + w2 + (z2,)
        u1 = c[0]
        ut = (u1 % p,) + c[1:n]
        wt = c[n:]
        x = tuple((a + b) % p for a, b in zip(self.A.mul_vec(ut), self.C.mul_vec(wt)))
        y = tuple((a + b) % p for a, b in zip(self.D.mul_vec(ut), self.B.mul_vec(wt)))
        s = (dot(self.alpha, c[1:n], p) + dot(self.beta, wt, p)
             + h * (dot(ut, AtD.mul_vec(ut), p) + dot(wt, CtB.mul_vec(wt), p))
             + dot(wt, CtD.mul_vec(ut), p)) % p
        first = (self.scalar * u1 + p * s) % (p * p)
        return (first,) + x[1:] + y

    def apply(self, e: Element) -> Element:
        if e.group.gid != self.group.gid:
            raise ContextError(f"cannot apply {self.group.gid} endomorphism to {e.group.gid} element")
        return Element(self.group, self.apply_coords(e.coords))

    def table(self):
        """Image index for every element index, as a numpy array; cached."""
        if self._table is None:
            self._table = _apply_all(self)
        return self._table

    def param_key(self) -> tuple:
        return (self.group.gid, self.A.rows, self.B.rows, self.C.rows, self.D.rows,
                self.alpha, self.beta, self.scalar)

    def to_json_dict(self) -> dict:
        d = {
            "group": str(self.group.gid),
            "A": [list(r) for r in self.A.rows],
            "B": [list(r) for r in self.B.rows],
            "C": [list(r) for r in self.C.rows],
            "D": [list(r) for r in self.D.rows],
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "automorphism": self.is_automorphism,
        }
        d["l" if self.group.kind == ES1 else "a"] = self.scalar
        return d

    def __eq__(self, other) -> bool:
        return isinstance(other, Morphism) and other.param_key() == self.param_key()

    def __hash__(self) -> int:
        return hash(self.param_key())

    def __repr__(self) -> str:
        name = "l" if self.group.kind == ES1 else "a"
        return f"Morphism({self.group.gid}, {name}={self.scalar})"


def _check_blocks(g: Group, blocks: dict, functionals: dict):
    n, p = g.n, g.p
    for name, m in blocks.items():
        if not isinstance(m, Mat):
            raise TypeError(f"block {name} must be a Mat")
        if m.m != p:
            raise DimensionError(f"block {name} has modulus {m.m}, expected {p}")
        if (m.nrows, m.ncols) != (n, n):
            raise DimensionError(f"block {name} must be {n}x{n}")
    for name, (v, length) in functionals.items():
        if len(v) != length:
            raise DimensionError(f"{name} must have length {length}")


def build_endo_es1(g: Group, A: Mat, B: Mat, C: Mat, D: Mat,
                   alpha, beta) -> Morphism:
    """Validate es1 parameters and return the endomorphism they define."""
    if g.kind != ES1:
        raise ContextError(f"build_endo_es1 expects an es1 group, got {g.gid}")
    n, p = g.n, g.p
    _check_blocks(g, {"A": A, "B": B, "C": C, "D": D},
                  {"alpha": (tuple(alpha), n), "beta": (tuple(beta), n)})
    At, Ct, Dt = A.transpose(), C.transpose(), D.transpose()
    if not (At * D).is_symmetric():
        raise MorphismValidationError("not in symp^scalar", "A^t*D not symmetric")
    if not (Ct * B).is_symmetric():
        raise MorphismValidationError("not in symp^scalar", "C^t*B not symmetric")
    E = At * B - Dt * C
    l = E.entry(0, 0)
    if E != Mat.identity(p, n).scale(l):
        raise MorphismValidationError("not in symp^scalar",
                                      "A^t*B - D^t*C is not a scalar multiple of the identity")
    return Morphism(g, A, B, C, D, tuple(x % p for x in alpha), tuple(x % p for x in beta), l % p)


def build_endo_es2(g: Group, A: Mat, B: Mat, C: Mat, D: Mat,
                   alpha, beta, a: int) -> Morphism:
    """Validate es2 parameters and return the endomorphism they define."""
    if g.kind != ES2:
        raise ContextError(f"build_endo_es2 expects an es2 group, got {g.gid}")
    n, p = g.n, g.p
    _check_blocks(g, {"A": A, "B": B, "C": C, "D": D},
                  {"alpha": (tuple(alpha), n - 1), "beta": (tuple(beta), n)})
    if any(A.entry(0, j) % p for j in range(1, n)):
        raise MorphismValidationError("first-row constraint a_{1j}=0 violated")
    if any(C.entry(0, j) % p for j in range(n)):
        raise MorphismValidationError("first-row constraint c_{1j}=0 violated")
    a11 = A.entry(0, 0)
    At, Ct, Dt = A.transpose(), C.transpose(), D.transpose()
    if not (At * D).is_symmetric():
        raise MorphismValidationError("not in symp^scalar", "A^t*D not symmetric")
    if not (Ct * B).is_symmetric():
        raise MorphismValidationError("not in symp^scalar", "C^t*B not symmetric")
    E = At * B - Dt * C
    if E != Mat.identity(p, n).scale(a11):
        raise MorphismValidationError("not in symp^scalar",
                                      "A^t*B - D^t*C != a_11 * identity")
    if (a - a11) % p != 0:
        raise MorphismValidationError("central scalar a != a_11 mod p")
    return Morphism(g, A, B, C, D, tuple(x % p for x in alpha), tuple(x % p for x in beta),
                    a % (p * p))


def split_sigma(g: Group, sigma: Mat):
    n = g.n
    A = sigma.submatrix(range(n), range(n))
    C = sigma.submatrix(range(n), range(n, 2 * n))
    D = sigma.submatrix(range(n, 2 * n), range(n))
    B = sigma.submatrix(range(n, 2 * n), range(n, 2 * n))
    return A, B, C, D


class SympScalarMatrix:
    """A similitude matrix bundled with its scalar (which may be zero)."""

    __slots__ = ("matrix", "scalar")

    def __init__(self, matrix: Mat, scalar: int):
        self.matrix = matrix
        self.scalar = scalar

    def __eq__(self, other):
        return (isinstance(other, SympScalarMatrix)
                and other.matrix == self.matrix and other.scalar == self.scalar)

    def __hash__(self):
        return hash((self.matrix, self.scalar))

    def __repr__(self):
        return f"SympScalarMatrix(l={self.scalar}, {self.matrix!r})"


def induced_quotient_matrix(m: Morphism) -> SympScalarMatrix:
    """The action on G/Z(G) in the (x bar, y bar) basis, with its scalar."""
    return SympScalarMatrix(m.sigma(), m.scalar_mod_p)


def params_from_generator_images(g: Group, images: list) -> Morphism:
    """Recover block parameters from homomorphic images of the generators.

    images lists the images of x_1..x_n, y_1..y_n in that order.  The input
    must extend to a homomorphism; validation rejects anything else that is
    detectable at the parameter level.
    """
    n, p, h = g.n, g.p, g.half
    if len(images) != 2 * n:
        raise DimensionError(f"expected {2 * n} generator images")
    for e in images:
        if e.group.gid != g.gid:
            raise ContextError("generator images must lie in the same group")
    cols = [g.quotient_coords(e.coords) for e in images]
    sigma = Mat.from_cols(p, cols)
    A, B, C, D = split_sigma(g, sigma)
    AtD = A.transpose() * D
    CtB = C.transpose() * B
    if g.kind == ES1:
        alpha = tuple((images[i].coords[-1] - h * AtD.entry(i, i)) % p for i in range(n))
        beta = tuple((images[n + j].coords[-1] - h * CtB.entry(j, j)) % p for j in range(n))
        return build_endo_es1(g, A, B, C, D, alpha, beta)
    # es2: the first coordinate of each image carries a / alpha / beta
    a = (images[0].coords[0] - p * ((h * AtD.entry(0, 0)) % p)) % (p * p)
    alpha = []
    for i in range(1, n):
        q, r = divmod(images[i].coords[0], p)
        if r:
            raise MorphismValidationError("generator image x_i lies outside the index-p subgroup")
        alpha.append((q - h * AtD.entry(i, i)) % p)
    beta = []
    for j in range(n):
        q, r = divmod(images[n + j].coords[0], p)
        if r:
            raise MorphismValidationError("generator image y_j lies outside the index-p subgroup")
        beta.append((q - h * CtB.entry(j, j)) % p)
    return build_endo_es2(g, A, B, C, D, tuple(alpha), tuple(beta), a)


def compose(m1: Morphism, m2: Morphism) -> Morphism:
    """The endomorphism g -> m1(m2(g)), recovered from generator images."""
    if m1.group.gid != m2.group.gid:
        raise ContextError("can only compose endomorphisms of the same group")
    g = m1.group
    images = [m1.apply(m2.apply(x)) for x in g.generators()]
    return params_from_generator_images(g, images)


def inner_automorphism(h: Element) -> Morphism:
    """Conjugation g -> h g h^-1 in parameter form (sigma = Id, scalar unit)."""
    g = h.group
    if g.kind not in (ES1, ES2):
        raise ContextError(f"inner automorphisms are parametrized for es1/es2 only, got {g.gid}")
    hc = h.coords
    hinv = g.inv(hc)
    images = [Element(g, g.mul(g.mul(hc, x.coords), hinv)) for x in g.generators()]
    return params_from_generator_images(g, images)


# -- enumeration -------------------------------------------------------------


def enumerate_sigma(g: Group, invertible_only: bool = False):
    """Yield (sigma, s) over all valid quotient matrices, grouped by scalar s.

    Columns are extended one at a time; each partial tuple already satisfies
    the Gram conditions <<col_i, col_j>> = s Delta_ij, so dead branches are
    pruned as early as possible.  For es2 the first row constraints confine
    every column but the first to V_1 and pin the first column's top entry
    to s.
    """
    if g.kind not in (ES1, ES2):
        raise ContextError(f"endomorphism parameters exist for es1/es2 only, got {g.gid}")
    p, n = g.p, g.n
    dim = 2 * n
    vectors = list(product(range(p), repeat=dim))
    es2 = g.kind == ES2
    scalars = range(1, p) if invertible_only else range(p)

    def delta_entry(i, j):
        if j == i + n:
            return 1
        if i == j + n:
            return -1
        return 0

    for s in scalars:
        if es2:
            first = [v for v in vectors if v[0] == s]
            rest = [v for v in vectors if v[0] == 0]
        else:
            first = rest = vectors
        stack = [([], first)]
        while stack:
            cols, cands = stack.pop()
            j = len(cols)
            for v in cands:
                if any(pairing(c, v, p) != (s * delta_entry(i, j)) % p
                       for i, c in enumerate(cols)):
                    continue
                new = cols + [v]
                if len(new) == dim:
                    yield Mat.from_cols(p, new), s
                else:
                    stack.append((new, rest if es2 else vectors))


def _central_params(g: Group) -> list:
    """The p^2n (alpha, beta, t) triples that share one quotient matrix.

    Listed in enumeration order: alpha outermost, then beta, then (es2 only)
    the lift index t of a = s + p t; es1 has t = 0 throughout.
    """
    p, n = g.p, g.n
    alphas = list(product(range(p), repeat=(n if g.kind == ES1 else n - 1)))
    betas = list(product(range(p), repeat=n))
    ts = range(p) if g.kind == ES2 else (0,)
    return list(product(alphas, betas, ts))


def _families(g: Group, invertible_only: bool, limit: int | None):
    """Yield, per quotient matrix, its member with alpha = beta = 0 and t = 0.

    The cap is charged the whole family of p^2n morphisms before the family
    is yielded, so the enumeration raises exactly when its total would
    exceed the limit and never hands out a member past it.
    """
    limit = cap("MORPHISM_CAP") if limit is None else limit
    what = "automorphism" if invertible_only else "endomorphism"
    size = g.p ** (2 * g.n)
    zero_alpha = (0,) * (g.n if g.kind == ES1 else g.n - 1)
    count = 0
    for sigma, s in enumerate_sigma(g, invertible_only):
        count += size
        if count > limit:
            raise CapExceeded(f"{what} enumeration of {g.gid} exceeds cap {limit}")
        yield Morphism(g, *split_sigma(g, sigma), zero_alpha, (0,) * g.n, s)


def _enumerate(g: Group, invertible_only: bool, limit: int | None):
    params = _central_params(g)
    for base in _families(g, invertible_only, limit):
        aux = base.aux()
        for alpha, beta, t in params:
            yield Morphism(g, base.A, base.B, base.C, base.D, alpha, beta,
                           base.scalar + g.p * t, aux)


def enumerate_endomorphisms(g: Group, limit: int | None = None):
    """Yield every endomorphism exactly once (the parametrization is injective)."""
    yield from _enumerate(g, False, limit)


def enumerate_automorphisms(g: Group, limit: int | None = None):
    """Yield every automorphism exactly once (scalar restricted to units)."""
    yield from _enumerate(g, True, limit)


def family_images(g: Group, E, invertible_only: bool = False, limit: int | None = None):
    """Image indices of the coordinate rows E under every morphism, per sigma.

    Members of one quotient matrix's family differ from its base member
    (alpha = beta = 0, t = 0) only by the central factor z^f(e bar), f the
    functional t u_1 bar + alpha(u) + beta(w) on G/Z.  So each family costs
    one base application plus a (rows x p^2n) shift of the central
    coordinate.  Yields one int64 block per sigma of enumerate_sigma; column
    j is the j-th member in enumerate_endomorphisms (or, with
    invertible_only, enumerate_automorphisms) order.  The cap is counted as
    in those enumerations.
    """
    import numpy as np

    p, n = g.p, g.n
    c = 0 if g.kind == ES2 else 2 * n  # the coordinate the shift moves
    radix, mod = g.radices[c], g.ranges[c]
    coeffs = np.array([((t,) if g.kind == ES2 else ()) + alpha + beta
                       for alpha, beta, t in _central_params(g)], dtype=np.int64)
    shift = (mod // p) * (((E[:, :2 * n] % p) @ coeffs.T) % p)
    for base in _families(g, invertible_only, limit):
        idx = _apply_all(base, E)
        z = (idx // radix) % mod
        yield (idx - radix * z)[:, None] + radix * ((z[:, None] + shift) % mod)


def is_im_phi2_matrix(mat: Mat) -> bool:
    """Quotient matrices realized by es2 automorphisms.

    The characterization: a scalar similitude whose scalar equals the nonzero
    corner entry a_11, first row (a_12..a_1n, c_11..c_1n) zero, and the y_1
    column fixed (b_11 = 1, b_j1 = c_j1 = 0 for j >= 2).
    """
    d = mat.nrows
    if d != mat.ncols or d % 2:
        raise DimensionError("expected a square matrix of even size")
    n = d // 2
    p = mat.m
    a11 = mat.entry(0, 0)
    if a11 % p == 0:
        return False
    if symp_scalar_test(mat) != a11:
        return False
    if any(mat.entry(0, j) % p for j in range(1, n)):       # a_1j, j >= 2
        return False
    if any(mat.entry(0, n + j) % p for j in range(n)):      # c_1j
        return False
    if mat.entry(n, n) % p != 1:                            # b_11
        return False
    if any(mat.entry(n + j, n) % p for j in range(1, n)):   # b_j1, j >= 2
        return False
    if any(mat.entry(j, n) % p for j in range(1, n)):       # c_j1, j >= 2
        return False
    return True


# -- whole-group application and the scalar action law ----------------------


def _apply_all(m: Morphism, rows=None):
    """Vectorized application to every element (or to the coordinate rows
    given); returns image indices."""
    import numpy as np

    g = m.group
    p, n, h = g.p, g.n, g.half
    E = g.coords_matrix() if rows is None else rows
    A = np.array(m.A.rows, dtype=np.int64)
    B = np.array(m.B.rows, dtype=np.int64)
    C = np.array(m.C.rows, dtype=np.int64)
    D = np.array(m.D.rows, dtype=np.int64)
    AtD = (A.T @ D) % p
    CtB = (C.T @ B) % p
    CtD = (C.T @ D) % p
    al = np.array(m.alpha, dtype=np.int64)
    be = np.array(m.beta, dtype=np.int64)
    radix = np.array(g.radices, dtype=np.int64)
    if g.kind == ES1:
        u, w, z = E[:, :n], E[:, n:2 * n], E[:, 2 * n]
        u2 = (u @ A.T + w @ C.T) % p
        w2 = (u @ D.T + w @ B.T) % p
        q = h * (((u @ AtD.T) * u).sum(1) + ((w @ CtB.T) * w).sum(1)) + ((u @ CtD.T) * w).sum(1)
        z2 = (u @ al + w @ be + m.scalar * z + q) % p
        img = np.column_stack([u2, w2, z2])
    else:
        u1 = E[:, 0]
        ut = np.column_stack([u1 % p, E[:, 1:n]])
        wt = E[:, n:]
        x = (ut @ A.T + wt @ C.T) % p
        y = (ut @ D.T + wt @ B.T) % p
        q = h * (((ut @ AtD.T) * ut).sum(1) + ((wt @ CtB.T) * wt).sum(1)) + ((ut @ CtD.T) * wt).sum(1)
        s = (E[:, 1:n] @ al + wt @ be + q) % p
        first = (m.scalar * u1 + p * s) % (p * p)
        img = np.column_stack([first, x[:, 1:], y])
    return img @ radix


def f_table(g: Group):
    """The commutator form on all element pairs, computed from the group law.

    F[a, b] is the c with ab = z^c ba, read off the index tables of ab and
    ba: both lie in one coset of Z(G) = <z>, and an index is its coset
    representative's plus (central exponent) * z_index.
    """
    import numpy as np

    cached = getattr(g, "_f_table", None)
    if cached is not None:
        return cached
    p, z = g.p, g.z_index
    E = g.coords_matrix()
    F = np.empty((g.size, g.size), dtype=np.int64)
    for rows in row_blocks(g.size):
        ab = g.mul_index(E[rows], E)
        ba = g.mul_index(E, E[rows]).T
        s_ab, s_ba = ab // z % p, ba // z % p
        check(np.array_equal(ab - s_ab * z, ba - s_ba * z), "commutator is not central")
        F[rows] = (s_ab - s_ba) % p
    g._f_table = F
    return F


def scalar_action_check(m: Morphism, exhaustive: bool = True,
                        sample: int = 10000, seed: int = 0) -> bool:
    """Does f(m(g), m(h)) = scalar * f(g, h) hold for all (or sampled) pairs?"""
    import numpy as np

    g = m.group
    l = m.scalar_mod_p
    if exhaustive:
        F = f_table(g)
        T = m.table()
        return bool(((F[np.ix_(T, T)] - l * F) % g.p == 0).all())
    rng = np.random.default_rng(seed)
    E = g.coords_matrix()
    for _ in range(sample):
        a = tuple(int(v) for v in E[rng.integers(g.size)])
        b = tuple(int(v) for v in E[rng.integers(g.size)])
        lhs = g.symplectic_f(m.apply_coords(a), m.apply_coords(b))
        if lhs != (l * g.symplectic_f(a, b)) % g.p:
            return False
    return True
