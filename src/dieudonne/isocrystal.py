"""Newton slopes and slope decompositions of F-isocrystals.

Slopes are read off the characteristic polynomial of the n-fold
linearization of the Frobenius (a twist-free, hence linear, map), through
its Newton polygon.  The slope projectors come from the segment
factorization of that polynomial: after passing to a matrix power that
makes all segment slopes integral, each segment factor is split off by a
p-power shear followed by classical coprime Hensel lifting, and the
partial-fraction idempotents are evaluated at the linearized matrix.

Everything runs at an internally boosted precision on the exact input
matrix, so the published projectors and component lattices are good at the
context precision; their p-denominators are recorded as map loss.

Matrices and polynomials are raw: entries and coefficients of
``matrix.ring(ctx)``, polynomials as low-degree-first lists.  The residue
step of Hensel lifting runs on the same polynomial ops, with every
coefficient reduced to its representative mod p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (FieldTooSmall, InclusionViolated,
                     PrecisionExhausted, SingularMap)
from .lattices import (Lattice, SemilinearMap, invert_matrix,
                       invert_matrix_exact, lattice_sum, matrix_kernel,
                       mod_p_dimension)
from .matrix import ring
from .witt import WittContext


# ---------------------------------------------------------------------------
# dense polynomials over the Witt ring (low-degree-first raw lists)


def poly_mul(ctx, a, b):
    """Product of raw polynomials: one scale-and-add per nonzero
    coefficient of a."""
    if not a or not b:
        return []
    R = ring(ctx)
    zero, lb = R.zero, len(b)
    out = [zero] * (len(a) + lb - 1)
    for i, x in enumerate(a):
        if x != zero:
            out[i:i + lb] = R.axpy(out[i:i + lb], R.neg(x), b)
    return out


def poly_divmod_monic(ctx, a, b):
    """Division with remainder by a monic divisor."""
    R = ring(ctx)
    a = list(a)
    db = len(b) - 1
    assert b[-1] == R.one
    q = [R.zero] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == R.zero:
            continue
        q[i - db] = c
        a[i - db:i + 1] = R.axpy(a[i - db:i + 1], c, b)
    return q, a[:db]


def poly_eval_matrix(ctx, coeffs, rows):
    """Evaluate a polynomial at a square raw matrix (Horner)."""
    R = ring(ctx)
    r = len(rows)
    acc = [[R.zero] * r for _ in range(r)]
    for c in reversed(coeffs):
        # acc <- acc * A + c I
        acc = R.mul_mat(acc, rows)
        for i in range(r):
            acc[i][i] = R.add(acc[i][i], c)
    return acc


def charpoly(ctx, rows):
    """Characteristic polynomial det(xI - A), monic, low-degree-first,
    by the division-free Berkowitz expansion."""
    R = ring(ctx)
    neg, dot = R.neg, R.dot
    r = len(rows)
    if r == 0:
        return [R.one]
    coeffs = [R.one, neg(rows[0][0])]
    for k in range(1, r):
        # leading principal (k+1)x(k+1) block, bordering the k x k block
        # A with a new row u and column c: t = 1, -a_kk, -u c, -u A c, ...
        block = [row[:k] for row in rows[:k]]
        u = rows[k][:k]
        t = [R.one, neg(rows[k][k])]
        col = [row[k] for row in rows[:k]]
        for j in range(k):
            t.append(neg(dot(u, col)))
            if j < k - 1:
                col = [dot(brow, col) for brow in block]
        coeffs = poly_mul(ctx, t, coeffs)[:k + 2]
    return list(reversed(coeffs))  # low-first, monic


# ---------------------------------------------------------------------------
# Newton polygons


def lower_hull(points):
    """Lower convex hull (monotone chain) of (x, y) pairs with distinct x."""
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop middle point when it lies on or above the new chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(ctx, coeffs, loss=0):
    """Root-valuation multiset of a monic polynomial as a sorted list of
    (valuation: Fraction, multiplicity).

    Coefficients that vanish at working precision are ambiguous; the hull
    is computed with both readings (valuation N and +infinity) and a
    disagreement raises PrecisionExhausted.
    """
    val = ring(ctx).val
    neff = ctx.N - loss
    deg = len(coeffs) - 1
    finite = []
    zeros = []
    for i, c in enumerate(coeffs):
        v = val(c)
        if v >= neff:
            zeros.append(i)
        else:
            finite.append((i, v))
    if val(coeffs[-1]) != 0:
        raise ValueError("polynomial is not monic")

    def segments(pts):
        hull = lower_hull(pts)
        segs = []
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            segs.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
        return segs

    segs = segments(finite)
    if zeros:
        with_zeros = segments(finite + [(i, neff) for i in zeros])
        if with_zeros != segs:
            raise PrecisionExhausted(
                "Newton polygon not resolved at working precision")
    # polygon slope -s over length l <-> l roots of valuation s
    out = [(-s, int(l)) for (s, l) in segs]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# coprime Hensel lifting


def _poly_axpy(R, y, q, x):
    """y - q x on raw polynomials, the shorter one padded with zeros."""
    m = max(len(x), len(y))
    return R.axpy(list(y) + [R.zero] * (m - len(y)), q,
                  list(x) + [R.zero] * (m - len(x)))


def _poly_reduce(R, a, pk):
    """Every coefficient reduced to its representative modulo the integer
    pk, trailing zeros kept."""
    return [R.rem(x, pk) for x in a]


def _residue(R, p, a):
    """The residue polynomial: coefficients reduced mod p, trailing zeros
    dropped.  A coefficient in [0, p) is also the raw lift of its residue."""
    a = _poly_reduce(R, a, p)
    while a and a[-1] == R.zero:
        a.pop()
    return a


def _residue_bezout(ctx, a, b):
    """(u, v) with u a + v b = 1 mod p for coprime residue polynomials,
    by the extended Euclidean algorithm on residues."""
    R = ring(ctx)
    p = ctx.p
    r0, r1 = _residue(R, p, a), _residue(R, p, b)
    s0, s1 = [R.one], []
    t0, t1 = [], [R.one]
    while r1:
        # divide by r1 through its monic associate
        inv = R.inverse(r1[-1])
        q, r = poly_divmod_monic(ctx, r0, _residue(R, p, R.scale(r1, inv)))
        q = R.scale(q, inv)
        r0, r1 = r1, _residue(R, p, r)
        s0, s1 = s1, _residue(R, p, _poly_axpy(R, s0, R.one,
                                                 poly_mul(ctx, q, s1)))
        t0, t1 = t1, _residue(R, p, _poly_axpy(R, t0, R.one,
                                                 poly_mul(ctx, q, t1)))
    if len(r0) != 1:
        raise FieldTooSmall("factors are not coprime over the residue field")
    inv = R.inverse(r0[0])
    return _residue(R, p, R.scale(s0, inv)), _residue(R, p, R.scale(t0, inv))


def hensel_split(ctx, F, gbar, hbar):
    """F = G * H mod p^N from a coprime monic factorization mod p, given
    by coefficients in [0, p).

    Classical quadratic lifting; the cofactor identity is refreshed each
    round, and no precision is lost since the resultant is a unit.
    """
    R = ring(ctx)
    one, minus_one = R.one, R.neg(R.one)
    g, h = list(gbar), list(hbar)
    s, t = _residue_bezout(ctx, gbar, hbar)   # s*g + t*h = 1 mod p
    deg_g, deg_h = len(gbar), len(hbar)
    prec = 1
    while prec < ctx.N:
        # quadratic step: all round arithmetic truncated mod p^(2 prec),
        # which is what makes the degree-overflow terms vanish exactly
        k = min(2 * prec, ctx.N)
        pk = ctx.p ** k
        e = _poly_reduce(R, _poly_axpy(R, F, one, poly_mul(ctx, g, h)), pk)
        q, r = poly_divmod_monic(ctx, poly_mul(ctx, s, e), h)
        # g <- g + t e + q g, h <- h + r
        g = _poly_axpy(R, _poly_axpy(R, g, minus_one, poly_mul(ctx, t, e)),
                       minus_one, poly_mul(ctx, q, g))
        g = _trim_monic(R, _poly_reduce(R, g, pk), deg_g)
        h = _trim_monic(R, _poly_reduce(R, _poly_axpy(R, h, minus_one, r),
                                        pk), deg_h)
        # refresh the Bezout pair: b = s g + t h - 1
        b = _poly_axpy(R, _poly_axpy(R, poly_mul(ctx, s, g), minus_one,
                                     poly_mul(ctx, t, h)), one, [one])
        b = _poly_reduce(R, b, pk)
        c, d = poly_divmod_monic(ctx, poly_mul(ctx, s, b), h)
        s = _poly_reduce(R, _poly_axpy(R, s, one, d), pk)
        # t <- t - t b - c g
        t = _poly_axpy(R, _poly_axpy(R, t, one, poly_mul(ctx, t, b)),
                       one, poly_mul(ctx, c, g))
        t = _poly_reduce(R, t, pk)
        prec = k
    diff = _poly_axpy(R, F, one, poly_mul(ctx, g, h))
    if any(c != R.zero for c in diff):
        raise PrecisionExhausted("Hensel lifting failed to converge")
    return g, h


def _trim_monic(R, a, length):
    """Drop zero padding above the known degree; a factor that does not
    stay monic of that degree means the residue factorization was not
    one of F mod p."""
    if any(c != R.zero for c in a[length:]) or a[:length][-1] != R.one:
        raise PrecisionExhausted("degree escaped during lifting")
    return list(a[:length])


def segment_factorization(ctx, F):
    """Factor a monic polynomial with integer segment slopes into its
    root-valuation factors: returns [(valuation, monic factor)].

    Splits off the minimal-valuation segment by the shear x -> p^v x, a
    residue factorization y^k * (unit part), and Hensel lifting; recurses
    on the complementary factor.
    """
    R = ring(ctx)
    p = ctx.p
    F = list(F)
    out = []
    while True:
        np_ = newton_polygon(ctx, F)
        if len(np_) == 1:
            out.append((np_[0][0], F))
            return out
        lam, length = np_[0]
        assert lam.denominator == 1, "segment slopes must be integral here"
        lam = int(lam)
        r = len(F) - 1
        # shear: F2(y) = F(p^lam y) / p^(r lam); integral by the polygon,
        # and lam >= 0 since a monic integral polynomial has integral roots
        F2 = [R.divide_p(c, (r - i) * lam) for i, c in enumerate(F)]
        # unit-root part has degree `length`; the rest reduces to y^(r-len)
        k = r - length
        hbar = _poly_reduce(R, F2[k:], p)
        hbar = _poly_reduce(R, R.scale(hbar, R.inverse(hbar[-1])), p)
        gbar = [R.zero] * k + [R.one]
        G2, H2 = hensel_split(ctx, F2, gbar, hbar)
        # undo the shear on both factors
        out.append((Fraction(lam), _unshear(R, p, H2, lam)))
        F = _unshear(R, p, G2, lam)


def _unshear(R, p, a, lam):
    """p^(d lam) a(x / p^lam) for a of degree d."""
    d = len(a) - 1
    return [R.scale([c], R.of_int(p ** ((d - i) * lam)))[0]
            for i, c in enumerate(a)]


# ---------------------------------------------------------------------------
# isocrystals


class FIsocrystal:
    """A free module with a Frobenius-semilinear map, bijective after
    inverting p: phi = p^{-denominator} A sigma.

    ``_derived`` caches data computed from A, filled on first use by
    ``inverse_numerator``, ``newton_slopes``, ``end_frobenius``,
    ``core._backward_numerator`` and ``core.TangentSpace.of``.  A
    crystal is never mutated (phi is set only here; ``at_precision``
    builds a new crystal), so the cache cannot go stale.
    """

    __slots__ = ("ctx", "rank", "phi", "M", "_derived")

    def __init__(self, ctx: WittContext, phi: SemilinearMap):
        if phi.twist != 1 % ctx.n:
            raise ValueError("Frobenius maps must carry twist 1")
        self.ctx = ctx
        self.phi = phi
        self.rank = phi.nrows
        self.M = Lattice.standard(ctx, self.rank)
        self._derived = {}

    @staticmethod
    def from_int_matrix(ctx, rows, denominator=0):
        return FIsocrystal(ctx, SemilinearMap(ctx, rows, twist=1,
                                              denominator=denominator))

    def at_precision(self, N2):
        ctx2 = self.ctx.with_precision(N2)
        return FIsocrystal(ctx2, SemilinearMap(
            ctx2, self.phi.rows, twist=1,
            denominator=self.phi.denominator))

    def inverse_numerator(self):
        """(A_adj, v(det A)) with A^{-1} = p^{-v(det A)} A_adj, exact at
        the context precision; computed once per crystal."""
        if "inverse" not in self._derived:
            self._derived["inverse"] = invert_matrix_exact(self.ctx,
                                                           self.phi.rows)
        return self._derived["inverse"]

    def linearization(self):
        """The n-fold power of phi: a twist-free (linear) map."""
        lam = self.phi
        for _ in range(self.ctx.n - 1):
            lam = self.phi.compose(lam)
        return lam

    def verschiebung(self):
        """p phi^{-1} = p^{1 + denominator - v(det A)} sigma^{-1}(A_adj)
        sigma^{-1}."""
        a_adj, vdet = self.inverse_numerator()
        e = (-1) % self.ctx.n
        frob = ring(self.ctx).frob
        rows = [[frob(x, e) for x in row] for row in a_adj]
        return SemilinearMap(self.ctx, rows, e,
                             vdet - self.phi.denominator - 1,
                             loss=self.phi.loss)

    def is_dieudonne(self):
        img = self.phi(self.M)
        if not self.M.contains(img):
            return False
        pM = Lattice.from_columns(self.ctx, self.rank,
                                  self.M._scaled_cols(1))
        return img.contains(pM)

    def __repr__(self):
        return f"FIsocrystal(rank={self.rank}, p={self.ctx.p}^N)"


def newton_slopes(crystal: FIsocrystal):
    """Sorted [(slope, multiplicity)] of the isocrystal; slopes are the
    linearization's root valuations divided by n, shifted by the
    denominator.

    Polygon heights grow like rank times slope, so when the working
    precision cannot resolve the hull the computation retries at a
    boosted precision on the defining matrix.  Computed once per crystal.
    """
    if "slopes" in crystal._derived:
        return crystal._derived["slopes"]
    ctx = crystal.ctx
    n = ctx.n
    d = crystal.phi.denominator
    work = crystal
    for attempt in range(3):
        lam = work.linearization()
        F = charpoly(work.ctx, lam.rows)
        try:
            np_ = newton_polygon(work.ctx, F, loss=crystal.phi.loss)
            slopes = [(Fraction(v, n) - d, m) for (v, m) in np_]
            crystal._derived["slopes"] = slopes
            return slopes
        except PrecisionExhausted:
            if attempt == 2:
                raise
            budget = crystal.rank * n * (1 + max(0, d)) + 8
            work = crystal.at_precision(work.ctx.N + budget)


class SlopeData:
    """Slope multiset, phi-equivariant projectors onto each isotypic
    summand, and the integral component lattices.  ``_derived`` caches
    the component bases (``_component_bases``) on first use."""

    __slots__ = ("crystal", "slopes", "projectors", "components", "is_split",
                 "_derived")

    def __init__(self, crystal, slopes, projectors, components, is_split):
        self.crystal = crystal
        self.slopes = slopes
        self.projectors = projectors
        self.components = components
        self.is_split = is_split
        self._derived = {}

    @property
    def slope_list(self):
        return [a for (a, _) in self.slopes]

    def multiplicity(self, a):
        for (b, m) in self.slopes:
            if b == a:
                return m
        return 0


def _matrix_content(R, rows):
    best = None
    for r in rows:
        for x in r:
            v = R.val(x)
            if best is None or v < best:
                best = v
            if best == 0:
                return 0
    return best if best is not None else 0


def slope_split(crystal: FIsocrystal) -> SlopeData:
    """Slope decomposition of the isocrystal.

    Works at a boosted internal precision proportional to the shear and
    denominator budget, then publishes projectors at the context precision
    with their denominators recorded as loss.
    """
    ctx = crystal.ctx
    slopes = newton_slopes(crystal)
    if len(slopes) == 1:
        r = crystal.rank
        ident = SemilinearMap.identity(ctx, r)
        return SlopeData(crystal, slopes, {slopes[0][0]: ident},
                         {slopes[0][0]: crystal.M}, True)
    n = ctx.n
    d = crystal.phi.denominator
    lam_vals = [(a + d) * n for (a, _) in slopes]
    b = 1
    for v in lam_vals:
        b = b * v.denominator // gcd(b, v.denominator)
    r = crystal.rank
    max_val = max(int(v * b) for v in lam_vals)
    budget = r * max_val + 2 * r + 8
    for attempt in range(3):
        # each retry doubles the guard digits
        try:
            return _slope_split_at(crystal, b, ctx.N + (budget << attempt))
        except (PrecisionExhausted, SingularMap) as err:
            last_err = err
    raise PrecisionExhausted(str(last_err))


def _slope_split_at(crystal, b, n_work):
    ctx = crystal.ctx
    big = crystal.at_precision(n_work)
    bctx = big.ctx
    R = ring(bctx)
    lam_rows = big.linearization().rows
    lam_b = lam_rows
    for _ in range(b - 1):
        lam_b = R.mul_mat(lam_b, lam_rows)
    F = charpoly(bctx, lam_b)
    np_ = newton_polygon(bctx, F)
    if any(v.denominator != 1 for (v, _) in np_):
        raise FieldTooSmall(
            "segment valuations stay fractional after linearization powers")
    factors = segment_factorization(bctx, F)
    n = ctx.n
    d = crystal.phi.denominator
    r = crystal.rank
    projectors = {}
    components = {}
    comp_sum = Lattice.zero(ctx, r)
    for (v, fac) in factors:
        alpha = Fraction(v, b * n) - d
        # partial-fraction idempotent: (F/fac) * inverse of (F/fac) mod fac
        q, rem = poly_divmod_monic(bctx, F, fac)
        if any(c != R.zero for c in rem):
            raise PrecisionExhausted(
                "a segment factor does not divide the characteristic "
                "polynomial at the working precision")
        w, wden = _poly_inverse_mod(bctx, q, fac)
        pnum = poly_mul(bctx, q, w)
        mat = poly_eval_matrix(bctx, pnum, lam_b)
        content = min(_matrix_content(R, mat), wden)
        if content:
            mat = [[R.divide_p(x, content) for x in row] for row in mat]
        den = wden - content
        if n_work - wden < ctx.N:
            raise PrecisionExhausted("projector denominators ate the guard")
        # publish at the context precision
        proj = SemilinearMap(ctx, mat, twist=0, denominator=den, loss=den)
        projectors[alpha] = proj
        comp = _projector_fixed_lattice(ctx, proj)
        components[alpha] = comp
        comp_sum = lattice_sum(comp_sum, comp)
    _validate_projectors(crystal, projectors)
    is_split = comp_sum.equals(crystal.M)
    slopes = [(a, components[a].rank) for a in sorted(components)]
    return SlopeData(crystal, slopes, projectors, components, is_split)


def _poly_inverse_mod(ctx, q, fac):
    """(w, vden) with q w = p^{-vden}-unit = 1 in Z_q[x]/(fac):
    w has denominator p^vden pulled out, i.e. q*w = p^vden mod fac."""
    R = ring(ctx)
    m = len(fac) - 1
    # multiplication-by-q matrix in the power basis of Z_q[x]/(fac)
    cols = []
    for j in range(m):
        xj = [R.zero] * j + [R.one]
        _, red = poly_divmod_monic(ctx, poly_mul(ctx, q, xj), fac)
        cols.append(red + [R.zero] * (m - len(red)))
    rows = [[cols[j][i] for j in range(m)] for i in range(m)]
    inv_rows, vden = invert_matrix(ctx, rows)
    # w = inv * e_0 (the constant polynomial 1), scaled by p^{-vden}
    return [row[0] for row in inv_rows], vden


def _projector_fixed_lattice(ctx, proj):
    """M intersect image(proj) = kernel of (1 - proj) on the standard
    lattice (saturated)."""
    R = ring(ctx)
    pk = R.of_int(ctx.p ** proj.denominator)
    rows = []
    for i, prow in enumerate(proj.rows):
        row = list(map(R.neg, prow))
        row[i] = R.add(row[i], pk)
        rows.append(row)
    neff = ctx.N - proj.loss
    kern = matrix_kernel(ctx, rows, neff)
    return Lattice.from_columns(ctx, proj.nrows, kern, loss=proj.loss)


def _validate_projectors(crystal, projectors):
    ctx = crystal.ctx
    r = crystal.rank
    keys = sorted(projectors)
    total = None
    for a in keys:
        e = projectors[a]
        ee = e.compose(e)
        if not _maps_equal(e, ee):
            raise PrecisionExhausted("projector fails idempotency")
        total = e if total is None else total.add(e)
    if not _maps_equal(total, SemilinearMap.identity(ctx, r)):
        raise PrecisionExhausted("projectors do not sum to the identity")
    for i, a in enumerate(keys):
        for bkey in keys[i + 1:]:
            prod = projectors[a].compose(projectors[bkey])
            if not _map_is_zero(prod):
                raise PrecisionExhausted("projectors are not orthogonal")
    # phi-equivariance: phi e = e phi as semilinear maps
    phi = crystal.phi
    for a in keys:
        e = projectors[a]
        if not _maps_equal(phi.compose(e), e.compose(phi)):
            raise PrecisionExhausted("projector does not commute with phi")


def _maps_equal(f, g):
    """Equality of maps up to the recorded losses and denominators."""
    ctx = f.ctx
    if f.twist != g.twist:
        return False
    d = max(f.denominator, g.denominator)
    loss = max(f.loss, g.loss) + max(d - f.denominator, d - g.denominator)
    neff = ctx.N - min(loss, ctx.N - 1)
    R = ring(ctx)
    a = R.of_int(ctx.p ** (d - f.denominator))
    b = R.of_int(ctx.p ** (d - g.denominator))
    return all(R.vanishes(R.axpy(R.scale(r1, a), b, r2), neff)
               for r1, r2 in zip(f.rows, g.rows))


def _map_is_zero(f):
    ctx = f.ctx
    neff = ctx.N - min(f.loss + max(f.denominator, 0), ctx.N - 1)
    vanishes = ring(ctx).vanishes
    return all(vanishes(r, neff) for r in f.rows)


# ---------------------------------------------------------------------------
# End(M) machinery


def mat_to_vec(rows):
    return [x for row in rows for x in row]


def vec_to_mat(vec, r):
    return [list(vec[i * r:(i + 1) * r]) for i in range(r)]


def sandwich_map(ctx, left_rows, right_rows, twist=0, denominator=0, loss=0):
    """The map x |-> L sigma^twist(x) R on raw r x r matrices, flattened
    row-major to r^2 coordinates: row (i, j) is the outer product of row
    i of L and column j of R."""
    scale = ring(ctx).scale
    right_cols = list(zip(*right_rows))
    big = [[y for a in lrow for y in scale(rcol, a)]
           for lrow in left_rows for rcol in right_cols]
    return SemilinearMap(ctx, big, twist=twist, denominator=denominator,
                         loss=loss)


class Sandwich(SemilinearMap):
    """The map x |-> p^{-denominator} L sigma^twist(x) R on End(M), held by
    its factors ``left`` (L) and ``right`` (R).  Its r^2 x r^2 rows are the
    ``sandwich_map`` of the factors, built on first use: a caller that
    reads only the factors (the carriers, the block bases of
    ``signed_block_lattices``) never builds them.  The first
    ``apply_raw`` builds the rows and then, as on every map, the cached
    columns ``_tcols`` it combines them by."""

    __slots__ = ("left", "right", "_rows")

    def __init__(self, ctx, left, right, twist=0, denominator=0, loss=0):
        self.ctx = ctx
        self.left = left
        self.right = right
        self.twist = twist % ctx.n
        self.denominator = denominator
        self.loss = loss
        self._rows = None
        self._tcols = None

    @property
    def rows(self):
        if self._rows is None:
            self._rows = sandwich_map(self.ctx, self.left, self.right).rows
        return self._rows


def end_frobenius(crystal: FIsocrystal) -> SemilinearMap:
    """Conjugation action x -> phi x phi^{-1} on End(M), as a semilinear
    map on r^2 coordinates (independent of the denominator of phi): the
    ``Sandwich`` A sigma(x) A_adj over p^{v(det A)}; computed once per
    crystal."""
    if "end_phi" not in crystal._derived:
        inv_rows, vdet = crystal.inverse_numerator()
        crystal._derived["end_phi"] = Sandwich(
            crystal.ctx, crystal.phi.rows, inv_rows, twist=1,
            denominator=vdet, loss=crystal.phi.loss)
    return crystal._derived["end_phi"]


class EndDecomposition:
    """The integral lattices V_plus, V_minus of the positive and negative
    Hom-block sums of End(M) over all slope pairs, built by
    ``signed_block_lattices`` like those of every other pair set
    (``signs.sign_modules``).  ``_derived`` caches what is
    computed from them on first use: ``o_minus()`` under ``"o_minus"``,
    each sign's ``carrier()`` under ``"carrier_plus"``/``"carrier_minus"``,
    and each pair set's ``signs.sign_modules`` under the set's ``pairs``
    tuple."""

    __slots__ = ("crystal", "slope_data", "V_plus", "V_minus", "_derived")

    def __init__(self, crystal, slope_data, V_plus, V_minus):
        self.crystal = crystal
        self.slope_data = slope_data
        self.V_plus = V_plus
        self.V_minus = V_minus
        self._derived = {}

    def carrier(self, sign):
        """The ``core.Carrier`` of V_plus (sign "plus") or V_minus
        ("minus"): every signed lattice of every pair set lies in one of
        them, so their closures run in its block coordinates when the
        module splits integrally, and on End(M) when it does not."""
        key = f"carrier_{sign}"
        if key not in self._derived:
            from .core import Carrier
            slopes = self.slope_data.slope_list
            pairs = [(a, b) for a in slopes for b in slopes if b > a]
            if sign == "minus":
                pairs = [(b, a) for (a, b) in pairs]
            self._derived[key] = Carrier.of(
                getattr(self, f"V_{sign}"), self.crystal, self.slope_data,
                pairs)
        return self._derived[key]

    def o_minus(self):
        """The largest negative stable lattice inside V_minus; computed
        once per decomposition."""
        if "o_minus" not in self._derived:
            from .core import largest_sub_dieudonne
            self._derived["o_minus"] = largest_sub_dieudonne(
                self.V_minus, self.crystal, mode="negative",
                carrier=self.carrier("minus"))
        return self._derived["o_minus"]


def _component_bases(slope_data):
    """{a: (U_a, D_a)} with e_a = U_a D_a: the rows of the r x r_a matrix
    U_a are those of the echelon basis of the component M cap W_a, and
    D_a (r_a x r) holds the component coordinates of the columns of e_a.
    None unless every projector is integral (denominator 0), every
    component has scale 0 and every column of e_a solves in its
    component, which is when the module splits integrally.  Computed once
    per slope data."""
    derived = slope_data._derived
    if "bases" not in derived:
        r = slope_data.crystal.rank
        out = {}
        for a, comp in slope_data.components.items():
            e = slope_data.projectors[a]
            cols = [comp.solve([row[j] for row in e.rows]) for j in range(r)]
            if e.denominator or comp.scale or None in cols:
                out = None
                break
            out[a] = (list(zip(*comp.ech)), list(zip(*cols)))
        derived["bases"] = out
    return derived["bases"]


def block_projector(crystal, slope_data, pairs):
    """The projector onto the sum of Hom(W(src), W(dst)) blocks of
    End(M)[1/p] for the given (src, dst) slope pairs, as its sandwich
    terms {(src, dst): x -> e_dst x e_src}.  Each term is a ``Sandwich``
    with the factors e_dst and e_src, whose r^2 x r^2 rows are built only
    when the term is applied or added."""
    return {(src, dst): _hom_block_map(crystal.ctx, slope_data, src, dst)
            for (src, dst) in pairs}


def _hom_block_map(ctx, slope_data, src, dst):
    """x -> e_dst x e_src."""
    e_src = slope_data.projectors[src]
    e_dst = slope_data.projectors[dst]
    den = e_src.denominator + e_dst.denominator
    loss = max(e_src.loss, e_dst.loss) + min(e_src.denominator,
                                             e_dst.denominator)
    return Sandwich(ctx, e_dst.rows, e_src.rows, twist=0, denominator=den,
                    loss=loss)


def _projector_image(crystal, terms, bases):
    """The integral part of the image of the projector sum(terms).

    With the component bases of a module that splits integrally, the
    image of the term x -> e_dst x e_src is spanned by the integral
    matrices U_dst[:, i] D_src[j, :].  Their span is rebuilt from its
    canonical columns, so that its processing-order echelon is those
    columns whatever the order of the generators: a carrier takes its
    coordinates on that echelon, and the closures it runs can differ just
    below p^N from one basis to another (``core._membership_refine``).
    Otherwise (``bases`` None) the terms are summed into the r^2 x r^2
    projector, whose fixed lattice carries the loss of its
    denominators."""
    ctx = crystal.ctx
    R = ring(ctx)
    r2 = crystal.rank ** 2
    if bases is None:
        proj = None
        for term in terms.values():
            proj = term if proj is None else proj.add(term)
        if proj is None:
            proj = SemilinearMap(ctx, [[R.zero] * r2] * r2)
        return _projector_fixed_lattice(ctx, proj)
    gens = []
    for (src, dst) in terms:
        U, D = bases[dst][0], bases[src][1]
        gens += [[x for urow in U for x in R.scale(drow, urow[i])]
                 for i in range(len(U[0])) for drow in D]
    span = Lattice.from_columns(ctx, r2, gens)
    return Lattice.from_columns(ctx, r2, span.cols)


def signed_block_lattices(crystal, slope_data, pairs):
    """(V_plus, V_minus): the integral parts of the Hom-block sums over
    the increasing slope pairs (a, b) and over their reverses (b, a),
    each the image of its ``block_projector``.  On a module that splits
    integrally they are spanned by the block bases U_dst[:, i] D_src[j, :]
    of the components and have loss 0; otherwise they are the fixed
    lattices of the r^2 x r^2 projectors and carry the loss of the
    projectors' denominators (see ``_projector_image``)."""
    bases = _component_bases(slope_data)
    return tuple(
        _projector_image(crystal,
                         block_projector(crystal, slope_data, blocks), bases)
        for blocks in (pairs, [(b, a) for (a, b) in pairs]))


def end_decompose(crystal: FIsocrystal, slope_data: SlopeData
                  ) -> EndDecomposition:
    slopes = slope_data.slope_list
    pairs = [(a, b) for a in slopes for b in slopes if b > a]
    return EndDecomposition(
        crystal, slope_data,
        *signed_block_lattices(crystal, slope_data, pairs))


def dim_codim(crystal: FIsocrystal):
    """(codimension, dimension) of a Dieudonne module: colengths of the
    Verschiebung and Frobenius images."""
    ctx = crystal.ctx
    M = crystal.M
    img = crystal.phi(M)
    if not M.contains(img):
        raise InclusionViolated("phi(M) is not contained in M")
    d = mod_p_dimension(img, M)
    vimg = crystal.verschiebung()(M)
    if not M.contains(vimg):
        raise InclusionViolated("p phi^{-1}(M) is not contained in M")
    c = mod_p_dimension(vimg, M)
    return c, d

