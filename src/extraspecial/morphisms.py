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

Both are one parametrization (sigma, f, s), read off the group's data:
sigma the quotient matrix, s its similitude scalar and f in F_p^2n the
central functional, f = (alpha; beta) for es1 and (t; alpha; beta) with
a = s + p t for es2.  sigma respects the pairing, sigma^t Delta sigma =
s Delta, and the power form omega of `Group.power_form` (0 for es1, e_1 for
es2): phi(x^p) = phi(x)^p reads omega sigma = s omega, the first-row
constraint.  One builder, `build_endo`, serves all four kinds (es1~ and
es2~ share omega and M - M^t with es1 and es2) and reads the rest off omega;
`enumerate_morphisms` yields every endomorphism or automorphism.

The quotient matrices are enumerated as a numpy frontier (`_frontier`):
one int8 pairing table on F_p^2n and every partial column tuple extended at
once, one boolean mask per Gram entry <<col_i, col_j>> = s Delta_ij.  The
first column is drawn from {omega . v = s omega_1}, the rest from ker omega.
`MORPHISM_CAP` is charged for the whole enumeration before any matrix
reaches a caller, so a refusal computes no image.  The frontier shares no
code with the oracle's matrix scans, which count the same matrices by an
independent route.

The formula is written once, in `_images`: a numpy kernel over coordinate
rows that takes a (k, 2n, 2n) int64 stack of quotient matrices with one
scalar and reads the group's own data, with no branch per kind.  The p^2n
morphisms that share one sigma form a family: its base member (f = 0) times
the central factor z^f(v).  Each member's central step z_unit f(v) and the
rows' monomials are built once per walk (`_walk_inputs`).  `Morphism.table`,
`apply_coords` and `family_images` pass one matrix, with a column per member;
`image_sets` passes runs of sigmas (the brute orbits) with a column per value
of f(v), at most p: the family's image set of each row.

End(G) is a monoid on the parameters, and `compose` is its law: with s in
[0, p), (sigma1, f1, s1)(sigma2, f2, s2) = (sigma1 sigma2, s1 f2 +
sigma2^t f1 + floor(s1 s2 / p) omega, s1 s2 mod p), where the carry term
makes the lift a = s + p (f . omega) multiply in Z/p^2.  Inn(G) = {(Id, f, 1)}
is the kernel of (sigma, f, s) -> sigma (`inner_automorphism`).  Neither maps
an element; `params_from_generator_images` reads parameters off generator images.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .config import charge
from .errors import ContextError, DimensionError, MorphismValidationError, check
from .groups import TABLE_CAP, Element, Group, row_blocks
from .modp import Mat, inv_mod
from .symplectic import all_vectors, symp_scalar_test


class Morphism:
    """A parametrized endomorphism (sigma, f, s) of one es1 or es2 group.

    sigma is the induced quotient matrix [[A, C], [D, B]], f the central
    functional and s the similitude scalar; `scalar` is the lift a where the
    power form is nonzero.  Internal: the constructor takes the parameters
    unchecked.  Build one with build_endo, params_from_generator_images,
    inner_automorphism or compose, the product (sigma1 sigma2, s1 f2 +
    sigma2^t f1 + floor(s1 s2 / p) omega, s1 s2 mod p) with s in [0, p).
    """

    __slots__ = ("group", "sigma", "f", "s", "_table")

    def __init__(self, g: Group, sigma: Mat, f: tuple, s: int):
        self.group = g
        self.sigma = sigma  # the quotient matrix
        self.f = f  # the central functional on G/Z, 2n coefficients
        self.s = s  # the similitude scalar
        self._table = None

    A = property(lambda self: split_sigma(self.group, self.sigma)[0])
    B = property(lambda self: split_sigma(self.group, self.sigma)[1])
    C = property(lambda self: split_sigma(self.group, self.sigma)[2])
    D = property(lambda self: split_sigma(self.group, self.sigma)[3])

    @property
    def alpha(self) -> tuple:
        """f on the x_i outside the power form's support (es2: x_2..x_n)."""
        g = self.group
        return tuple(c for c, w in zip(self.f[:g.n], g.power_form()) if not w)

    @property
    def beta(self) -> tuple:
        """f on the y_j."""
        return self.f[self.group.n:]

    @property
    def scalar(self) -> int:
        """s + p (f . omega): s itself where omega = 0, else the central lift a."""
        g = self.group
        return self.s + g.p * (sum(c * w for c, w in zip(self.f, g.power_form())) % g.p)

    @property
    def scalar_name(self) -> str:
        """The scalar's name: a, the lift, where the power form is nonzero, else l."""
        return "a" if any(self.group.power_form()) else "l"

    @property
    def is_automorphism(self) -> bool:
        return self.s != 0

    def _apply_rows(self, E):
        """Image indices of the coordinate rows E under this map."""
        import numpy as np

        g = self.group
        W, F = _walk_inputs(g, E, [self.f])
        sigma = np.array([self.sigma.rows], dtype=np.int64)
        return _images(g, sigma, self.s, E, W, F)[0, :, 0]

    def apply_coords(self, c: tuple) -> tuple:
        return self.group.coords_at(int(self._apply_rows([c])[0]))

    def apply(self, e: Element) -> Element:
        if e.group.gid != self.group.gid:
            raise ContextError(f"cannot apply {self.group.gid} endomorphism to {e.group.gid} element")
        return Element(self.group, self.apply_coords(e.coords))

    def table(self):
        """Image index for every element index, as a numpy array; cached."""
        if self._table is None:
            self._table = self._apply_rows(self.group.coords_matrix())
        return self._table

    def param_key(self) -> tuple:
        return (self.group.gid, self.sigma.rows, self.f, self.s)

    def to_json_dict(self) -> dict:
        return {
            "group": str(self.group.gid),
            "A": [list(r) for r in self.A.rows],
            "B": [list(r) for r in self.B.rows],
            "C": [list(r) for r in self.C.rows],
            "D": [list(r) for r in self.D.rows],
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "automorphism": self.is_automorphism,
            self.scalar_name: self.scalar,
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, Morphism) and other.param_key() == self.param_key()

    def __hash__(self) -> int:
        return hash(self.param_key())

    def __repr__(self) -> str:
        return f"Morphism({self.group.gid}, {self.scalar_name}={self.scalar})"


def _validated(g: Group, sigma: Mat, f) -> Morphism:
    """The morphism (sigma, f, s), once sigma respects both forms on G/Z.

    First omega sigma = s omega, column by column (for es2 the first-row
    constraints, named after the first offending column), then
    sigma^t Delta sigma = s Delta.  Where omega != 0, s is read off omega
    sigma at omega's first nonzero coefficient.  Every f is allowed.
    """
    p, n = g.p, g.n
    omega = g.power_form()
    image = [sum(w * x for w, x in zip(omega, col)) % p for col in zip(*sigma.rows)]
    l = symp_scalar_test(sigma)  # None when sigma is no similitude; then l != s below
    s = next((x * inv_mod(w, p) % p for x, w in zip(image, omega) if w), l or 0)
    bad = next((j for j, (x, w) in enumerate(zip(image, omega)) if x != s * w % p), None)
    if bad is not None:
        raise MorphismValidationError(f"first-row constraint {'ac'[bad >= n]}_{{1j}}=0 violated")
    if l != s:
        raise MorphismValidationError("not in symp^scalar",
                                      "sigma^t Delta sigma is not s Delta for one scalar s")
    return Morphism(g, sigma, tuple(x % p for x in f), s)


def build_endo(g: Group, A: Mat, B: Mat, C: Mat, D: Mat,
               alpha, beta, a: int | None = None) -> Morphism:
    """Validate block parameters and return the endomorphism they define.

    sigma = [[A, C], [D, B]]; alpha is f on the x_i outside the power form's
    support (n entries for es1, n - 1 for es2) and beta f on the y_j.  A lift
    a = s + p t of the similitude scalar s = a_11 is taken only where the
    power form omega is nonzero (ContextError elsewhere); it puts t on
    omega's support and defaults to s.
    """
    n, p = g.n, g.p
    omega = g.power_form()
    if a is not None and not any(omega):
        raise ContextError(f"{g.gid} takes no central lift a")
    for name, m in (("A", A), ("B", B), ("C", C), ("D", D)):
        if not isinstance(m, Mat):
            raise TypeError(f"block {name} must be a Mat")
        if m.m != p:
            raise DimensionError(f"block {name} has modulus {m.m}, expected {p}")
        if (m.nrows, m.ncols) != (n, n):
            raise DimensionError(f"block {name} must be {n}x{n}")
    alpha, beta = tuple(alpha), tuple(beta)
    for name, v, length in (("alpha", alpha, omega[:n].count(0)), ("beta", beta, n)):
        if len(v) != length:
            raise DimensionError(f"{name} must have length {length}")
    sigma = Mat(p, [ra + rc for ra, rc in zip(A.rows, C.rows)]
                + [rd + rb for rd, rb in zip(D.rows, B.rows)])
    rest = iter(alpha)
    m = _validated(g, sigma, tuple(0 if w else next(rest) for w in omega[:n]) + beta)
    if a is not None:
        if (a - m.s) % p:
            raise MorphismValidationError("central scalar a != a_11 mod p")
        m = Morphism(g, sigma, tuple((c + (a - m.s) // p * w) % p
                                     for c, w in zip(m.f, omega)), m.s)
    return m


def split_sigma(g: Group, sigma: Mat):
    n = g.n
    A = sigma.submatrix(range(n), range(n))
    C = sigma.submatrix(range(n), range(n, 2 * n))
    D = sigma.submatrix(range(n, 2 * n), range(n))
    B = sigma.submatrix(range(n, 2 * n), range(n, 2 * n))
    return A, B, C, D


def params_from_generator_images(g: Group, images: list) -> Morphism:
    """Recover (sigma, f, s) from homomorphic images of the generators.

    images lists the images of x_1..x_n, y_1..y_n in that order.  sigma is
    read off their quotient vectors and validated; the f = 0 member of its
    family sends generator j to an element with the same quotient vector,
    and z^f_j is the difference of the central slots (mod its range, over
    z_unit).  The input must extend to a homomorphism; validation rejects
    anything else that is detectable at the parameter level.
    """
    n = g.n
    if len(images) != 2 * n:
        raise DimensionError(f"expected {2 * n} generator images")
    for e in images:
        if e.group.gid != g.gid:
            raise ContextError("generator images must lie in the same group")
    sigma = Mat.from_cols(g.p, [g.quotient_coords(e.coords) for e in images])
    base = _validated(g, sigma, (0,) * (2 * n))
    z, R = g._z_slot, g.ranges[g._z_slot]
    images_0 = base._apply_rows([x.coords for x in g.generators()]).tolist()
    f = tuple((e.coords[z] - g.coords_at(i)[z]) % R // g._z_unit
              for e, i in zip(images, images_0))
    return Morphism(g, sigma, f, base.s)


def compose(m1: Morphism, m2: Morphism) -> Morphism:
    """The endomorphism g -> m1(m2(g)) by the law on parameters, s in [0, p):
    (sigma1 sigma2, s1 f2 + sigma2^t f1 + floor(s1 s2 / p) omega, s1 s2 mod p).
    The quadratic terms q = (1/2) v^t (sigma^t M sigma - s M) v compose exactly;
    the carry term makes the lift a = s + p (f . omega) multiply in Z/p^2."""
    if m1.group.gid != m2.group.gid:
        raise ContextError("can only compose endomorphisms of the same group")
    g, p, s1 = m1.group, m1.group.p, m1.s
    cols = list(zip(*m2.sigma.rows))
    sigma = Mat(p, [[sum(map(mul, r, c)) for c in cols] for r in m1.sigma.rows])
    f = tuple((s1 * x + sum(map(mul, c, m1.f)) + s1 * m2.s // p * w) % p
              for x, c, w in zip(m2.f, cols, g.power_form()))
    return Morphism(g, sigma, f, s1 * m2.s % p)


def inner_automorphism(h: Element) -> Morphism:
    """Conjugation g -> h g h^-1 as (Id, f_h, 1): for the cocycle M, h x h^-1 =
    x z^f_h(v), f_h(v) = v_h^t (M - M^t) v, so f_h = -A(., v_h).  Inn(G) is
    the kernel of (sigma, f, s) -> sigma (D. L. Winter, Rocky Mountain J.
    Math. 2, 1972)."""
    g = h.group
    f = tuple(-a % g.p for a in g.commutator_functional(g.quotient_coords(h.coords)))
    return Morphism(g, Mat.identity(g.p, 2 * g.n), f, 1)


# -- enumeration -------------------------------------------------------------

# cells of one candidate mask (frontier rows x candidate pool) per extension
# step: a 128 KiB bool mask, whose surviving rows take at most 1 MiB of int16
# column indices at 2n = 4
FRONTIER_CELLS = 1 << 17

# sigmas per image_sets kernel call: as many as fill this many cells of
# (sigmas x rows x p^2n), 128 KiB of int16.  config.LIMITS bounds the
# frontier's pairing table (PAIRING_CELLS).
STACK_CELLS = 1 << 16


def _pairing_int8(V, p: int):
    """T[a, b] = <<V_a, V_b>> as an int8 table, computed one row block at a time."""
    import numpy as np

    n = V.shape[1] // 2
    J = np.concatenate([V[:, n:], -V[:, :n]], axis=1).T  # <<a, b>> = a . (J b)
    T = np.empty((len(V), len(V)), dtype=np.int8)
    for rows in row_blocks(len(V)):
        T[rows] = V[rows] @ J % p
    return T


def _frontier(g: Group, invertible_only: bool):
    """Yield (V, cols, s): blocks of quotient matrices with scalar s.

    Row r of the int16 block cols lists the vector indices of one matrix's
    columns; its matrix is V[cols[r]].T.  omega sigma = s omega draws the
    first column from {v : omega . v = s omega_1} and every later one from
    ker omega, one pool built once with its columns of the pairing table.
    Blocks come grouped by s and, inside one s, in lexicographic order of
    the column tuples.
    """
    import numpy as np

    p, n, omega = g.p, g.n, g.power_form()
    charge("PAIRING_CELLS", p ** (4 * n), f"pairing table for the quotient of {g.gid}")
    V = np.array(all_vectors(2 * n, p), dtype=np.int64)
    T = _pairing_int8(V, p)
    level = V @ np.array(omega, dtype=np.int64) % p  # omega . v
    every = np.arange(len(V), dtype=np.int16)
    # omega is 0 or e_1 (Group's central slot), so omega_j = 0 past column 1
    later = every[level == 0], T[:, level == 0]
    for s in range(1, p) if invertible_only else range(p):
        first = every[level == s * omega[0] % p]
        for cols in _extend(first[:, None], later, s, n):
            yield V, cols, s


def _extend(F, later, s: int, n: int):
    """Complete the partial column tuples F (rows of vector indices).

    later is (pool, table) for every column after the first: the candidate
    vectors, ker omega, and the pairing table restricted to them.  Column
    j's candidates are masked by one table comparison per earlier column i:
    <<col_i, col_j>> = s when j = i + n and 0 otherwise, the Gram conditions
    of sigma^t Delta sigma = s Delta.  F is cut into row slices whose mask
    has at most FRONTIER_CELLS cells, taken in order.
    """
    import numpy as np

    j = F.shape[1]
    if j == 2 * n:
        yield F
        return
    pool, T = later
    step = max(1, FRONTIER_CELLS // len(pool))
    for lo in range(0, len(F), step):
        block = F[lo:lo + step]
        ok = T[block[:, 0]] == (s if j == n else 0)
        for i in range(1, j):
            ok &= T[block[:, i]] == (s if j == i + n else 0)
        rows, picks = np.nonzero(ok)
        yield from _extend(np.column_stack([block[rows], pool[picks]]), later, s, n)


def _functionals(g: Group, limit: int | None = None) -> list:
    """The p^2n central functionals f in F_p^2n that share one quotient
    matrix, in enumeration (lexicographic) order.  Every enumeration has at
    least one such family, so the morphism cap is charged for it first."""
    charge("MORPHISM_CAP", g.p ** (2 * g.n), f"a family of morphisms of {g.gid}", limit)
    return list(product(range(g.p), repeat=2 * g.n))


def _charged(g: Group, invertible_only: bool, limit: int | None):
    """The frontier's blocks, once all their k p^2n morphisms fit the limit.

    The whole frontier is walked, keeping at most limit / p^2n sigmas, before
    any block is returned, so a refusal comes before any image."""
    what = "automorphism" if invertible_only else "endomorphism"
    size = g.p ** (2 * g.n)
    blocks, count = [], 0
    for block in _frontier(g, invertible_only):
        count += len(block[1]) * size
        charge("MORPHISM_CAP", count, f"{what} enumeration of {g.gid}", limit)
        blocks.append(block)
    return blocks


def enumerate_morphisms(g: Group, invertible_only: bool = False):
    """Yield every endomorphism exactly once (the parametrization is
    injective), or with invertible_only every automorphism (s a unit).

    Order: by sigma in the frontier's order (`_frontier`), then by f
    lexicographically.  The cap is charged for all of them before the first
    is yielded."""
    fs = _functionals(g)
    for V, cols, s in _charged(g, invertible_only, None):
        for c in cols:
            sigma = Mat(g.p, V[c].T.tolist())
            for f in fs:
                yield Morphism(g, sigma, f, s)


def family_images(g: Group, E, invertible_only: bool = False, limit: int | None = None):
    """Image indices of the coordinate rows E under every morphism, per sigma.

    Yields (s, block), one (rows x p^2n) block per sigma of `_frontier`,
    s its scalar: the block's maps are automorphisms exactly when s != 0.
    Column j is the j-th member in enumerate_morphisms order; the cap is
    counted as there.
    """
    W, F = _walk_inputs(g, E, _functionals(g, limit))
    for V, cols, s in _charged(g, invertible_only, limit):
        for c in cols:
            yield s, _images(g, V[c].T[None], s, E, W, F)[0]


def image_sets(g: Group, E, invertible_only: bool = False, limit: int | None = None):
    """Each family's image set of the coordinate rows E, as in family_images.

    Yields (s, block), one (sigmas x rows x p) block of sigmas of one frontier
    block (see STACK_CELLS) per kernel call.  `_images` reads a member only
    through its value F[r, j] on row r, so row r needs one column per value
    F[r, :] takes: all p of them where v != 0, and only 0 at v = 0."""
    import numpy as np

    W, F = _walk_inputs(g, E, _functionals(g, limit))
    k = max(1, STACK_CELLS // (len(E) * F.shape[1]))
    F = np.where(F.any(1)[:, None], np.arange(g.p, dtype=F.dtype) * g._z_unit, 0)
    for V, cols, s in _charged(g, invertible_only, limit):
        for lo in range(0, len(cols), k):
            yield s, _images(g, V[cols[lo:lo + k]].transpose(0, 2, 1), s, E, W, F)


def is_im_phi2_matrix(mat: Mat) -> bool:
    """Quotient matrices realized by es2 automorphisms.

    The characterization: a scalar similitude whose scalar equals the nonzero
    corner entry a_11, first row (a_12..a_1n, c_11..c_1n) zero, and the y_1
    column fixed (b_11 = 1, b_j1 = c_j1 = 0 for j >= 2).
    """
    d = mat.nrows
    if d != mat.ncols or d % 2:
        raise DimensionError("expected a square matrix of even size")
    n, a11 = d // 2, mat.entry(0, 0)
    y1 = tuple(zip(*mat.rows))[n]  # (c_11..c_n1, b_11..b_n1)
    return (a11 != 0 and symp_scalar_test(mat) == a11 and not any(mat.rows[0][1:])
            and y1 == (0,) * n + (1,) + (0,) * (n - 1))


# -- the endomorphism formula -----------------------------------------------


def _walk_inputs(g: Group, E, functionals):
    """(W, F), built once per walk.  W[r] = (v_i v_j mod p) over the (2n)^2
    index pairs, v row r's quotient vector; F[i, j] = z_unit f_j(v_i), the
    j-th functional at v_i as a step of the central slot, in the output dtype
    (int16 while |G| < 2^15).  The first numpy step of every map of rows, so
    it refuses a group past INDEX_LIMIT = 2^63 elements, which int64 indices
    cannot hold."""
    import numpy as np

    charge("INDEX_LIMIT", g.size, f"int64 element indices of {g.gid}")
    V = g._quotient_rows(np.asarray(E, dtype=np.int64))
    W = (V[:, :, None] * V[:, None]).reshape(len(V), -1) % g.p
    Phi = np.array(functionals, dtype=np.int64).reshape(-1, 2 * g.n)
    F = V @ Phi.T % g.p * g._z_unit
    return W, F.astype(np.int16 if g.size < 1 << 15 else np.int64)


def _images(g: Group, sigma, s: int, E, W, F):
    """Image indices of the coordinate rows E: a (k, rows, columns) block.

    The one place the endomorphism formula is written.  Entry [i, r, j]
    applies the quotient matrix sigma[i] (sigma a k x 2n x 2n int64 stack,
    every matrix with scalar s mod p), composed with the j-th central
    functional, whose central step on row r is F[r, j]; W and F come from
    `_walk_inputs`, once per walk, and the output takes F's dtype.  With v a
    row's quotient vector (its first 2n coordinates, read mod p), the image
    has quotient vector sigma v, and its central slot holds

        s * (the row's own slot value) + z_unit * (q(v) + f_j(v))  mod R,

    R = ranges[z], q(v) = (1/2) v^t S v with S = sigma^t M sigma - s M for
    the group's cocycle M: the correction that makes the map respect the
    cocycle.  For M = [[0, I], [0, 0]], S = [[A^t D, D^t C], [C^t D, C^t B]],
    the quadratic term of the module docstring.  q of every row under every
    stacked sigma is one 2D product, the flattened S times W^t; its sums
    have 4n^2 terms, each below p^2.  The base value c = s * slot + z_unit *
    q(v) mod R is one per sigma and row, so each member's image is the base
    index plus ((c + F[r, j]) mod R) radix_z.  Every other value is reduced
    before it is scaled, so no intermediate passes |G| < 2^63.
    """
    import numpy as np

    p, z = g.p, g._z_slot
    E = np.asarray(E, dtype=np.int64)
    M = np.array(g.cocycle, dtype=np.int64)
    V = g._quotient_rows(E)
    sigma_t = sigma.transpose(0, 2, 1)
    S = (sigma_t @ M @ sigma - s * M) % p
    q = g.half * (S.reshape(len(sigma), -1) @ W.T % p) % p
    R = g.ranges[z]
    c = (s * E[:, z] + g._z_unit * q) % R
    radix = np.array(g.radices[:2 * g.n], dtype=np.int64)
    radix[z:z + 1] = 0  # es2: the central slot is a quotient coordinate too
    out = (c.astype(F.dtype)[:, :, None] + F) % R * g.radices[z]
    out += (V @ sigma_t % p @ radix).astype(F.dtype)[:, :, None]
    return out


def f_table(g: Group):
    """The commutator form on all element pairs, computed from the group law.

    F[a, b] is the c with ab = z^c ba, read off the multiplication table at
    (a, b) and (b, a), one row block at a time: both products lie in one
    coset of Z(G) = <z>, and an index is its coset representative's plus
    (central exponent) * z_index.
    """
    import numpy as np

    from .oracle import mult_table

    cached = getattr(g, "_f_table", None)
    if cached is not None:
        return cached
    charge("TABLE_CAP", g.size, f"commutator-form table for {g.gid}")
    p, z = g.p, g.z_index
    T = mult_table(g)
    F = np.empty((g.size, g.size), dtype=np.int64)
    for rows in row_blocks(g.size):
        ab, ba = T[rows], T[:, rows].T
        s_ab, s_ba = ab // z % p, ba // z % p
        check(np.array_equal(ab - s_ab * z, ba - s_ba * z), "commutator is not central")
        F[rows] = (s_ab - s_ba) % p
    g._f_table = F
    return F


def scalar_action_check(m: Morphism) -> bool:
    """Does f(m(g), m(h)) = scalar * f(g, h) hold?

    On every pair while the group has at most TABLE_CAP elements, the size
    limit of f_table; past that on 200 pairs drawn coordinate by coordinate
    with a fixed seed, so no table of all elements is built.
    """
    import numpy as np

    g = m.group
    l = m.s
    if g.size <= TABLE_CAP:
        F = f_table(g)
        T = m.table()
        return bool(((F[np.ix_(T, T)] - l * F) % g.p == 0).all())
    sample = 200
    charge("INDEX_LIMIT", g.size, f"int64 element indices of {g.gid}")  # before any draw
    rng = np.random.default_rng(7)
    E = np.column_stack([rng.integers(r, size=2 * sample) for r in g.ranges])
    images = m._apply_rows(E).reshape(sample, 2)
    return all(g.symplectic_f(g.coords_at(ma), g.coords_at(mb))
               == l * g.symplectic_f(tuple(a), tuple(b)) % g.p
               for (a, b), (ma, mb) in zip(E.reshape(sample, 2, -1).tolist(), images.tolist()))
