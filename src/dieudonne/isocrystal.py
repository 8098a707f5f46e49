"""Newton slopes and slope decompositions of F-isocrystals.

Slopes are read off the characteristic polynomial of the n-fold
linearization of the Frobenius (a twist-free, hence linear, map), through
its Newton polygon.  The slope projectors come from the segment
factorization of that polynomial: after passing to a matrix power that
makes all segment slopes integral, each segment factor is split off by a
p-power shear followed by classical coprime Hensel lifting, and the
partial-fraction idempotents are evaluated at that power L of the
linearized matrix.  Each idempotent's numerator has degree below the rank
r, so one table of L^0, ..., L^(r-1) is built per split, and each
numerator is one ``vec_mat`` of its coefficients against it.

Everything runs at an internally boosted precision on the exact input
matrix, so the published projectors and component lattices are good at the
context precision; their p-denominators are recorded as map loss.  Every
boost and retry is one ``lattices.boosted`` call with its schedule.

Matrices and polynomials are raw: entries and coefficients of
``matrix.ring(ctx)``, polynomials as low-degree-first lists.  The residue
step of Hensel lifting runs on the same polynomial ops, with every
coefficient reduced to its representative mod p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (FieldTooSmall, InclusionViolated, PrecisionExhausted,
                     VerificationMismatch)
from .lattices import (Lattice, SemilinearMap, boosted, invert_matrix,
                       invert_matrix_exact, lattice_sum, matrix_kernel,
                       mod_p_dimension, saturate)
from .matrix import ring
from .witt import WittContext


# ---------------------------------------------------------------------------
# dense polynomials over the Witt ring (low-degree-first raw lists)


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
        coeffs = R.poly_mul(t, coeffs)[:k + 2]
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
    pk, trailing zeros dropped, so that products of reduced polynomials
    do not grow with the padding of their operands."""
    a = [R.rem(x, pk) for x in a]
    while a and a[-1] == R.zero:
        a.pop()
    return a


def _residue_bezout(ctx, a, b):
    """(u, v) with u a + v b = 1 mod p for coprime residue polynomials,
    by the extended Euclidean algorithm on residues (``_poly_reduce`` mod
    p; a coefficient in [0, p) is also the raw lift of its residue)."""
    R = ring(ctx)
    p = ctx.p
    r0, r1 = _poly_reduce(R, a, p), _poly_reduce(R, b, p)
    s0, s1 = [R.one], []
    t0, t1 = [], [R.one]
    while r1:
        # divide by r1 through its monic associate
        inv = R.inverse(r1[-1])
        q, r = poly_divmod_monic(ctx, r0,
                                 _poly_reduce(R, R.scale(r1, inv), p))
        q = R.scale(q, inv)
        r0, r1 = r1, _poly_reduce(R, r, p)
        s0, s1 = s1, _poly_reduce(R, _poly_axpy(R, s0, R.one,
                                                R.poly_mul(q, s1)), p)
        t0, t1 = t1, _poly_reduce(R, _poly_axpy(R, t0, R.one,
                                                R.poly_mul(q, t1)), p)
    if len(r0) != 1:
        raise FieldTooSmall("factors are not coprime over the residue field")
    inv = R.inverse(r0[0])
    return (_poly_reduce(R, R.scale(s0, inv), p),
            _poly_reduce(R, R.scale(t0, inv), p))


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
        e = _poly_reduce(R, _poly_axpy(R, F, one, R.poly_mul(g, h)), pk)
        q, r = poly_divmod_monic(ctx, R.poly_mul(s, e), h)
        # g <- g + t e + q g, h <- h + r
        g = _poly_axpy(R, _poly_axpy(R, g, minus_one, R.poly_mul(t, e)),
                       minus_one, R.poly_mul(q, g))
        g = _trim_monic(R, _poly_reduce(R, g, pk), deg_g)
        h = _trim_monic(R, _poly_reduce(R, _poly_axpy(R, h, minus_one, r),
                                        pk), deg_h)
        # refresh the Bezout pair: b = s g + t h - 1
        b = _poly_axpy(R, _poly_axpy(R, R.poly_mul(s, g), minus_one,
                                     R.poly_mul(t, h)), one, [one])
        b = _poly_reduce(R, b, pk)
        c, d = poly_divmod_monic(ctx, R.poly_mul(s, b), h)
        s = _poly_reduce(R, _poly_axpy(R, s, one, d), pk)
        # t <- t - t b - c g
        t = _poly_axpy(R, _poly_axpy(R, t, one, R.poly_mul(t, b)),
                       one, R.poly_mul(c, g))
        t = _poly_reduce(R, t, pk)
        prec = k
    diff = _poly_axpy(R, F, one, R.poly_mul(g, h))
    if any(c != R.zero for c in diff):
        raise PrecisionExhausted("Hensel lifting failed to converge")
    return g, h


def _trim_monic(R, a, length):
    """A reduced factor (no trailing zeros) that must stay monic of its
    known degree; one that does not means the residue factorization was
    not one of F mod p."""
    if len(a) != length or a[-1] != R.one:
        raise PrecisionExhausted("degree escaped during lifting")
    return a


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

    ``source`` holds the rows that define A: the integers (or coefficient
    lists) given to ``from_int_matrix``, negative entries included, else
    the raw rows of phi.  Every boost lifts them, not the residues of A
    modulo p^N, which are another matrix at the boost.

    ``_derived`` caches data computed from A, filled on first use by
    ``inverse_numerator``, ``newton_slopes``, ``dim_codim``,
    ``end_frobenius``, ``core._backward_numerator`` and
    ``core.TangentSpace.of``.  A crystal is never mutated (phi is set
    only here; ``at_precision`` builds a new crystal), so the cache
    cannot go stale.
    """

    __slots__ = ("ctx", "rank", "phi", "source", "M", "_derived")

    def __init__(self, ctx: WittContext, phi: SemilinearMap, source=None):
        if phi.twist != 1 % ctx.n:
            raise ValueError("Frobenius maps must carry twist 1")
        self.ctx = ctx
        self.phi = phi
        self.source = phi.rows if source is None else source
        self.rank = phi.nrows
        self.M = Lattice.standard(ctx, self.rank)
        self._derived = {}

    @staticmethod
    def from_int_matrix(ctx, rows, denominator=0):
        """The crystal of the integer matrix ``rows`` (ints or
        coefficient lists), kept as its ``source``; phi holds its raw
        entries, converted here once."""
        rows = tuple(map(tuple, rows))
        return FIsocrystal(ctx, SemilinearMap(ctx, ring(ctx).raw_mat(rows),
                                              twist=1,
                                              denominator=denominator),
                           source=rows)

    def at_precision(self, ctx2):
        """The same integer matrix, its ``source``, over ctx2, a context
        of another precision; the crystal itself over its own context."""
        if ctx2 is self.ctx:
            return self
        return FIsocrystal.from_int_matrix(ctx2, self.source,
                                           self.phi.denominator)

    def inverse_numerator(self):
        """(A_adj, v(det A)) with A^{-1} = p^{-v(det A)} A_adj, exact at
        the context precision (``invert_matrix_exact`` of the source);
        computed once per crystal."""
        if "inverse" not in self._derived:
            self._derived["inverse"] = invert_matrix_exact(self.ctx,
                                                           self.source)
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
        rows = ring(self.ctx).frob_mat(a_adj, e)
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
    precision cannot resolve the hull the computation retries with one and
    then two budgets of guard digits.  Computed once per crystal.
    """
    if "slopes" not in crystal._derived:
        n = crystal.ctx.n
        d = crystal.phi.denominator

        def attempt(c):
            lam = crystal.at_precision(c).linearization()
            np_ = newton_polygon(c, charpoly(c, lam.rows),
                                 loss=crystal.phi.loss)
            return [(Fraction(v, n) - d, m) for (v, m) in np_]

        budget = crystal.rank * n * (1 + max(0, d)) + 8
        crystal._derived["slopes"] = boosted(
            crystal.ctx, (0, budget, 2 * budget), attempt)
    return crystal._derived["slopes"]


class SlopeData:
    """Slope multiset, phi-equivariant projectors onto each isotypic
    summand, and the integral component lattices.  ``_derived`` caches
    the ``factor`` lattices of the Hom blocks, keyed by (dual, slopes)."""

    __slots__ = ("crystal", "slopes", "projectors", "components", "_derived")

    def __init__(self, crystal, slopes, projectors, components):
        self.crystal = crystal
        self.slopes = slopes
        self.projectors = projectors
        self.components = components
        self._derived = {}

    @property
    def is_split(self):
        """True when M is the direct sum of its slope components, which
        is when every slope projector is integral (denominator 0)."""
        return not any(e.denominator for e in self.projectors.values())

    def factor(self, slopes, dual=False):
        """The fixed lattice of e = the sum of the projectors of
        ``slopes``: T, the part of M in the sum of their components, or
        with ``dual`` that of the transpose of e: F, the part of the dual
        module M^v that vanishes off their components.  Each carries the
        loss of e, and T of one slope is that slope's component.  An
        integral e fixes exactly its image, the span of its columns (of
        its rows with ``dual``).  Computed once per slope data, side and
        set."""
        slopes = tuple(sorted(slopes))
        if not dual and len(slopes) == 1:
            return self.components[slopes[0]]
        key = (dual, slopes)
        if key not in self._derived:
            e = self.projectors[slopes[0]]
            for a in slopes[1:]:
                e = e.add(self.projectors[a])
            if not e.denominator:
                gens = e.rows if dual else list(zip(*e.rows))
                fixed = Lattice.from_columns(e.ctx, e.nrows, gens,
                                             loss=e.loss)
            else:
                if dual:
                    e = SemilinearMap(e.ctx, list(zip(*e.rows)),
                                      denominator=e.denominator, loss=e.loss)
                fixed = _projector_fixed_lattice(e.ctx, e)
            self._derived[key] = fixed
        return self._derived[key]

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
                         {slopes[0][0]: crystal.M})
    n = ctx.n
    d = crystal.phi.denominator
    lam_vals = [(a + d) * n for (a, _) in slopes]
    b = 1
    for v in lam_vals:
        b = b * v.denominator // gcd(b, v.denominator)
    r = crystal.rank
    max_val = max(int(v * b) for v in lam_vals)
    budget = r * max_val + 2 * r + 8
    return boosted(ctx, (budget, 2 * budget, 4 * budget),
                   lambda bctx: _slope_split_at(crystal, b, bctx))


def _slope_split_at(crystal, b, bctx):
    ctx = crystal.ctx
    big = crystal.at_precision(bctx)
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
    table = _power_table(R, lam_b)
    projectors = {}
    components = {}
    for (v, fac) in factors:
        alpha = Fraction(v, b * n) - d
        # partial-fraction idempotent: (F/fac) * inverse of (F/fac) mod fac
        q, rem = poly_divmod_monic(bctx, F, fac)
        if any(c != R.zero for c in rem):
            raise PrecisionExhausted(
                "a segment factor does not divide the characteristic "
                "polynomial at the working precision")
        w, wden = _poly_inverse_mod(bctx, q, fac)
        # deg q + deg w = (r - deg fac) + (deg fac - 1): pnum has r
        # coefficients, one per power in the table
        pnum = R.poly_mul(q, w)
        mat = vec_to_mat(R.vec_mat(pnum, table), r)
        content = min(_matrix_content(R, mat), wden)
        if content:
            mat = [[R.divide_p(x, content) for x in row] for row in mat]
        den = wden - content
        if bctx.N - wden < ctx.N:
            raise PrecisionExhausted("projector denominators ate the guard")
        # publish at the context precision: raw entries of bctx reduced
        proj = SemilinearMap(ctx, ring(ctx).raw_mat(mat), twist=0,
                             denominator=den, loss=den)
        projectors[alpha] = proj
        comp = _projector_fixed_lattice(ctx, proj)
        components[alpha] = comp
    _validate_projectors(crystal, projectors)
    slopes = [(a, components[a].rank) for a in sorted(components)]
    return SlopeData(crystal, slopes, projectors, components)


def _power_table(R, rows):
    """L^0, ..., L^(r-1) of an r x r raw matrix L, each flattened
    row-major: a polynomial of degree below r evaluated at L is the one
    ``vec_mat`` of its coefficients against the table."""
    powers = [R.identity(len(rows)), rows]
    for _ in range(len(rows) - 2):
        powers.append(R.mul_mat(powers[-1], rows))
    return [mat_to_vec(m) for m in powers[:len(rows)]]


def _poly_inverse_mod(ctx, q, fac):
    """(w, vden) with q w = p^{-vden}-unit = 1 in Z_q[x]/(fac):
    w has denominator p^vden pulled out, i.e. q*w = p^vden mod fac."""
    R = ring(ctx)
    m = len(fac) - 1
    # multiplication-by-q matrix in the power basis of Z_q[x]/(fac)
    cols = []
    for j in range(m):
        xj = [R.zero] * j + [R.one]
        _, red = poly_divmod_monic(ctx, R.poly_mul(q, xj), fac)
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
    outer = ring(ctx).outer
    right_cols = list(zip(*right_rows))
    big = [outer(lrow, rcol) for lrow in left_rows for rcol in right_cols]
    return SemilinearMap(ctx, big, twist=twist, denominator=denominator,
                         loss=loss)


def end_frobenius(crystal: FIsocrystal) -> SemilinearMap:
    """Conjugation action x -> phi x phi^{-1} on End(M), as a semilinear
    map on r^2 coordinates (independent of the denominator of phi): the
    ``sandwich_map`` A sigma(x) A_adj over p^{v(det A)}; computed once per
    crystal."""
    if "end_phi" not in crystal._derived:
        inv_rows, vdet = crystal.inverse_numerator()
        crystal._derived["end_phi"] = sandwich_map(
            crystal.ctx, crystal.phi.rows, inv_rows, twist=1,
            denominator=vdet, loss=crystal.phi.loss)
    return crystal._derived["end_phi"]


class EndDecomposition:
    """The one table of pair-set data on End(M), built from the slope
    data (which holds the crystal): for each set of increasing slope
    pairs (a, b), its signed block lattices, its carriers, its largest
    negative stable lattice O_minus and that lattice's codimension
    c_minus.  Nothing is built before it is asked for.  ``_derived``
    caches, keyed by the sorted pair tuple:
    ``signed(pairs)`` under ``("signed", pairs)``, each
    ``carrier(sign, pairs)`` under ``("carrier", sign, pairs)``,
    ``o_minus(pairs)`` under ``("o_minus", pairs)``, ``c_minus(pairs)``
    under ``("c_minus", pairs)``, ``codim(pairs)`` under
    ``("codim", pairs)``, and each pair set's
    ``signs.sign_modules`` under the bare ``pairs`` tuple.

    On a module that splits integrally both conjugation numerators
    preserve every Hom(W_a, W_b), so O_minus(Y) of a set Y of two or more
    pairs is the sum of those of its pairs, and c_minus(Y) the sum of
    theirs.  Every other set is closed directly on its own carrier, and so
    is the full set, which is certified against the sum of its pairs."""

    __slots__ = ("slope_data", "_derived")

    def __init__(self, slope_data):
        self.slope_data = slope_data
        self._derived = {}

    @property
    def crystal(self):
        return self.slope_data.crystal

    @property
    def pairs(self):
        """Every increasing slope pair (a, b), in sorted order."""
        slopes = self.slope_data.slope_list
        return tuple((a, b) for a in slopes for b in slopes if b > a)

    @property
    def V_plus(self):
        return self.signed(self.pairs)[0]

    @property
    def V_minus(self):
        return self.signed(self.pairs)[1]

    def _sorted(self, pairs):
        return self.pairs if pairs is None else tuple(sorted(pairs))

    def signed(self, pairs):
        """(V_plus, V_minus) of the increasing slope pairs ``pairs``,
        once per pair set: on a module that splits integrally, the sums
        over the pairs of a set of two or more that is not the full set,
        rebuilt from their canonical columns as in ``_block_lattice``;
        else one ``signed_block_lattices`` call."""
        pairs = self._sorted(pairs)
        key = ("signed", pairs)
        if key not in self._derived:
            parts = self._parts(pairs)
            if parts and pairs != self.pairs:
                sums = (lattice_sum(*side)
                        for side in zip(*map(self.signed, parts)))
                self._derived[key] = tuple(
                    Lattice.from_columns(L.ctx, L.ambient, L.cols)
                    for L in sums)
            else:
                self._derived[key] = signed_block_lattices(
                    self.slope_data, pairs)
        return self._derived[key]

    def carrier(self, sign, pairs=None):
        """The ``core.Carrier`` of the sign's ("plus" or "minus") lattice
        of ``signed(pairs)``, by default of all the slope pairs.  On a
        module that splits integrally it holds that lattice, of rank the
        sum of r_a r_b over the pairs; on one that does not it is End(M)
        itself.  Built once per sign and pair set."""
        pairs = self._sorted(pairs)
        key = ("carrier", sign, pairs)
        if key not in self._derived:
            from .core import Carrier
            self._derived[key] = Carrier.of(
                self.signed(pairs)[sign == "minus"], sign, self.slope_data)
        return self._derived[key]

    def _parts(self, pairs):
        """The one-pair sets whose signed lattices, O_minus and c_minus
        sum to those of ``pairs``: on a module that splits integrally,
        for two or more pairs; else None."""
        if self.slope_data.is_split and len(pairs) > 1:
            return [(pair,) for pair in pairs]
        return None

    def o_minus(self, pairs=None):
        """The largest negative stable lattice inside V_minus of
        ``pairs`` (by default all the slope pairs); computed once per
        decomposition and pair set."""
        pairs = self._sorted(pairs)
        key = ("o_minus", pairs)
        if key not in self._derived:
            parts = self._parts(pairs)
            total = parts and lattice_sum(*map(self.o_minus, parts))
            if parts and pairs != self.pairs:
                O = total
            else:
                from .core import largest_sub_dieudonne
                V = self.signed(pairs)[1]
                O = largest_sub_dieudonne(V, self.carrier("minus", pairs))
                # O_minus has full rank in V_minus; a closure that drops
                # rank ran out of precision
                if O.rank < V.rank:
                    raise PrecisionExhausted(
                        "a stable-lattice closure lost rank at the "
                        "working precision")
                if parts and not total.equals(O):
                    raise VerificationMismatch(
                        "the sum of the per-pair O_minus differs from the "
                        "closure of V_minus")
            self._derived[key] = O
        return self._derived[key]

    def c_minus(self, pairs=None):
        """The codimension of ``o_minus(pairs)`` (0 when it is zero);
        computed once per decomposition and pair set."""
        pairs = self._sorted(pairs)
        key = ("c_minus", pairs)
        if key not in self._derived:
            parts = self._parts(pairs)
            total = parts and sum(map(self.c_minus, parts))
            if parts and pairs != self.pairs:
                c = total
            else:
                c = self.codim(pairs)
                if parts and total != c:
                    raise VerificationMismatch(
                        f"the per-pair codimensions sum to {total}, the "
                        f"codimension of O_minus is {c}")
            self._derived[key] = c
        return self._derived[key]

    def codim(self, pairs=None):
        """The codimension of the closure ``o_minus(pairs)`` (0 when it is
        zero), in the coordinates of its minus carrier, with no check
        against the per-pair sum: ``c_minus`` of a set that is closed
        directly, and of O_-(G) in ``strata.strata_dims`` when that is
        O_minus itself.  Computed once per decomposition and pair set."""
        pairs = self._sorted(pairs)
        key = ("codim", pairs)
        if key not in self._derived:
            from .core import codim_of_dieudonne
            O = self.o_minus(pairs)
            self._derived[key] = codim_of_dieudonne(
                O, self.carrier("minus", pairs)) if O.rank else 0
        return self._derived[key]


def block_projector(slope_data, pairs):
    """The factor groups [(F_S, T_A)] of the sum of the Hom(W(src),
    W(dst)) blocks of End(M)[1/p] over the (src, dst) slope pairs: the
    pairs are the union of the products S x A of the groups, and each
    group's blocks in End(M) are spanned by the outer products t f^T
    with t in T_A and f in F_S (``SlopeData.factor``).  A set that is
    itself a product is one group; any other has a group per source."""
    targets = {}
    for (src, dst) in pairs:
        targets.setdefault(src, set()).add(dst)
    groups = [([src], dsts) for src, dsts in targets.items()]
    if len({frozenset(dsts) for dsts in targets.values()}) == 1:
        groups = [(list(targets), groups[0][1])]
    return [(slope_data.factor(srcs, dual=True), slope_data.factor(dsts))
            for srcs, dsts in groups]


def _hom_span(ctx, r2, groups, loss=0):
    """The lattice of End(M) spanned by the outer products t f^T, for
    each group (fs, ts) of the Hom blocks, each t in ts and f in fs, in
    that order: the blocks of a direct-sum decomposition of M, the t
    running over a summand and the f over the matching dual rows."""
    outer = ring(ctx).outer
    return Lattice.from_columns(
        ctx, r2, [outer(t, f) for fs, ts in groups for t in ts for f in fs],
        loss=loss)


def _block_lattice(slope_data, pairs):
    """The integral part of the sum of the Hom blocks over the (src, dst)
    pairs: the span of the outer products of the factor groups of
    ``block_projector``, at the largest loss of their factors.

    The matrix x = t f^T of two saturated factors is saturated, so the
    span of one group is.  A sum of groups is saturated on a module that
    splits integrally, where x = sum e_dst x e_src splits x into integral
    terms; on one that does not it is saturated in End(M), and the depth
    it had (its index valuation) is added to the loss.  The result is
    rebuilt from its canonical columns, so that its processing-order
    echelon is those columns whatever the order of the generators: a
    carrier takes its coordinates on that echelon, and the closures it
    runs can differ just below p^N from one basis to another
    (``core._membership_refine``)."""
    crystal = slope_data.crystal
    ctx = crystal.ctx
    r2 = crystal.rank ** 2
    groups = block_projector(slope_data, pairs)
    loss = max((L.loss for group in groups for L in group), default=0)
    span = _hom_span(ctx, r2, [(F.cols, T.cols) for F, T in groups], loss)
    if len(groups) > 1 and not slope_data.is_split:
        loss += span.index_valuation()
        span = saturate(span, Lattice.standard(ctx, r2))
    return Lattice.from_columns(ctx, r2, span.cols, loss=loss)


def signed_block_lattices(slope_data, pairs):
    """(V_plus, V_minus): the integral parts of the Hom-block sums over
    the increasing slope pairs (a, b) and over their reverses (b, a),
    each spanned by the outer products of the component factors of its
    ``block_projector`` (``_block_lattice``).  On a module that splits
    integrally they have loss 0; otherwise they carry the loss of the
    projectors' denominators, and of a saturation when the pair set is
    not a product."""
    return tuple(_block_lattice(slope_data, blocks)
                 for blocks in (pairs, [(b, a) for (a, b) in pairs]))


def end_decompose(slope_data: SlopeData) -> EndDecomposition:
    return EndDecomposition(slope_data)


def dim_codim(crystal: FIsocrystal):
    """(codimension, dimension) of a Dieudonne module: colengths of the
    Verschiebung and Frobenius images.  Computed once per crystal."""
    if "dim_codim" not in crystal._derived:
        M = crystal.M
        img = crystal.phi(M)
        if not M.contains(img):
            raise InclusionViolated("phi(M) is not contained in M")
        d = mod_p_dimension(img, M)
        vimg = crystal.verschiebung()(M)
        if not M.contains(vimg):
            raise InclusionViolated("p phi^{-1}(M) is not contained in M")
        crystal._derived["dim_codim"] = mod_p_dimension(vimg, M), d
    return crystal._derived["dim_codim"]
