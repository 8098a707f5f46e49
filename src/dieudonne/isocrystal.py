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

Matrices are raw (``matrix.ring``); the polynomials are lists of
``WittScalar`` coefficients, and ``charpoly`` reads a wrapped matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (FieldTooSmall, InclusionViolated,
                     PrecisionExhausted, SingularMap)
from .lattices import (Lattice, SemilinearMap, invert_matrix,
                       invert_matrix_exact, lattice_sum, matrix_kernel,
                       mod_p_dimension, restrict_map)
from .matrix import ring
from .witt import WittContext, WittScalar


# ---------------------------------------------------------------------------
# dense polynomials over the Witt ring (low-degree-first scalar lists)


def poly_mul(ctx, a, b):
    if not a or not b:
        return []
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


def poly_divmod_monic(ctx, a, b):
    """Division with remainder by a monic divisor."""
    a = list(a)
    db = len(b) - 1
    assert b[-1] == ctx.one
    q = [ctx.zero] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c.is_zero():
            continue
        q[i - db] = c
        for k in range(db + 1):
            a[i - db + k] = a[i - db + k] - c * b[k]
    return q, a[:db]


def poly_eval_matrix(ctx, coeffs, rows):
    """Evaluate a polynomial at a square raw matrix (Horner); raw."""
    R = ring(ctx)
    r = len(rows)
    acc = [[R.zero] * r for _ in range(r)]
    for c in reversed(R.raw_col(coeffs)):
        # acc <- acc * A + c I
        acc = R.mul_mat(acc, rows)
        for i in range(r):
            acc[i][i] = R.add(acc[i][i], c)
    return acc


def charpoly(ctx, rows):
    """Characteristic polynomial det(xI - A), monic, low-degree-first,
    by the division-free Berkowitz expansion."""
    r = len(rows)
    one, zero = ctx.one, ctx.zero
    if r == 0:
        return [one]
    coeffs = [one, -rows[0][0]]
    for k in range(1, r):
        # leading principal (k+1)x(k+1) block
        t = [one, -rows[k][k]]
        col = [rows[i][k] for i in range(k)]
        for j in range(k):
            s = zero
            for i in range(k):
                if not (rows[k][i].is_zero() or col[i].is_zero()):
                    s = s + rows[k][i] * col[i]
            t.append(-s)
            if j < k - 1:
                col = [sum((rows[i][l] * col[l] for l in range(k)
                            if not (rows[i][l].is_zero()
                                    or col[l].is_zero())), zero)
                       for i in range(k)]
        new = [zero] * (k + 2)
        for i in range(k + 2):
            acc = zero
            for j in range(len(coeffs)):
                if 0 <= i - j < len(t):
                    acc = acc + t[i - j] * coeffs[j]
            new[i] = acc
        coeffs = new
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
    neff = ctx.N - loss
    deg = len(coeffs) - 1
    finite = []
    zeros = []
    for i, c in enumerate(coeffs):
        v = c.valuation()
        if v >= neff:
            zeros.append(i)
        else:
            finite.append((i, v))
    if coeffs[-1].valuation() != 0:
        raise ValueError("polynomial is not monic")
    assert deg >= 0

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
# coprime Hensel lifting over the residue field


def _gfp(ctx, coeffs):
    return [ctx.residue(c.c) for c in coeffs]


def _gf_poly_trim(ctx, a):
    while a and ctx.gf_is_zero(a[-1]):
        a = a[:-1]
    return a


def _gf_poly_mul(ctx, a, b):
    if not a or not b:
        return []
    zero = tuple([0] * ctx.n)
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ctx.gf_is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = ctx.gf_add(out[i + j], ctx.gf_mul(x, y))
    return _gf_poly_trim(ctx, out)


def _gf_poly_divmod(ctx, a, b):
    a = list(a)
    b = _gf_poly_trim(ctx, list(b))
    db = len(b) - 1
    inv = ctx.gf_inv(b[-1])
    q = [tuple([0] * ctx.n)] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if ctx.gf_is_zero(c):
            continue
        f = ctx.gf_mul(c, inv)
        q[i - db] = f
        for k in range(db + 1):
            a[i - db + k] = ctx.gf_sub(a[i - db + k], ctx.gf_mul(f, b[k]))
    return q, _gf_poly_trim(ctx, a[:db])


def _gf_ext_euclid(ctx, a, b):
    """(u, v) with u a + v b = 1 for coprime residue polynomials."""
    zero_p = []
    one_p = [tuple([1] + [0] * (ctx.n - 1))]
    r0, r1 = _gf_poly_trim(ctx, list(a)), _gf_poly_trim(ctx, list(b))
    s0, s1 = one_p, zero_p
    t0, t1 = zero_p, one_p
    while r1:
        q, r = _gf_poly_divmod(ctx, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_poly_sub(ctx, s0, _gf_poly_mul(ctx, q, s1))
        t0, t1 = t1, _gf_poly_sub(ctx, t0, _gf_poly_mul(ctx, q, t1))
    if len(r0) != 1:
        raise FieldTooSmall("factors are not coprime over the residue field")
    inv = ctx.gf_inv(r0[0])
    u = [ctx.gf_mul(inv, c) for c in s0]
    v = [ctx.gf_mul(inv, c) for c in t0]
    return u, v


def _gf_poly_sub(ctx, a, b):
    la, lb = len(a), len(b)
    zero = tuple([0] * ctx.n)
    out = []
    for i in range(max(la, lb)):
        x = a[i] if i < la else zero
        y = b[i] if i < lb else zero
        out.append(ctx.gf_sub(x, y))
    return _gf_poly_trim(ctx, out)


def _lift_gf(ctx, a):
    return [ctx.scalar(list(c)) for c in a]


def hensel_split(ctx, F, gbar, hbar):
    """F = G * H mod p^N from a coprime monic factorization mod p.

    Classical quadratic lifting; the cofactor identity is refreshed each
    round, and no precision is lost since the resultant is a unit.
    """
    g = _lift_gf(ctx, gbar)
    h = _lift_gf(ctx, hbar)
    ubar, vbar = _gf_ext_euclid(ctx, gbar, hbar)
    s = _lift_gf(ctx, ubar)   # s*g + t*h = 1
    t = _lift_gf(ctx, vbar)
    deg_g, deg_h = len(gbar), len(hbar)
    prec = 1
    while prec < ctx.N:
        # quadratic step: all round arithmetic truncated mod p^(2 prec),
        # which is what makes the degree-overflow terms vanish exactly
        k = min(2 * prec, ctx.N)
        gh = poly_mul(ctx, g, h)
        e = _poly_reduce(ctx, _poly_sub(ctx, F, gh), k)
        se = poly_mul(ctx, s, e)
        q, r = poly_divmod_monic(ctx, se, h)
        te = poly_mul(ctx, t, e)
        qg = poly_mul(ctx, q, g)
        g = _poly_reduce(ctx, _poly_add_pad(ctx, g,
                                            _poly_add_pad(ctx, te, qg)), k)
        h = _poly_reduce(ctx, _poly_add_pad(ctx, h, r), k)
        g = _trim_monic(ctx, g, deg_g)
        h = _trim_monic(ctx, h, deg_h)
        # refresh the Bezout pair
        b = _poly_reduce(
            ctx, _poly_sub(ctx, _poly_add_pad(ctx, poly_mul(ctx, s, g),
                                              poly_mul(ctx, t, h)),
                           [ctx.one]), k)
        sb = poly_mul(ctx, s, b)
        c, d = poly_divmod_monic(ctx, sb, h)
        s = _poly_reduce(ctx, _poly_sub(ctx, s, d), k)
        tb = poly_mul(ctx, t, b)
        cg = poly_mul(ctx, c, g)
        t = _poly_reduce(ctx, _poly_sub(ctx, t, _poly_add_pad(ctx, tb, cg)),
                         k)
        prec = k
    gh = poly_mul(ctx, g, h)
    diff = _poly_sub(ctx, F, gh)
    if any(not c.is_zero() for c in diff):
        raise PrecisionExhausted("Hensel lifting failed to converge")
    return g, h


def _poly_reduce(ctx, a, k):
    """Truncate every coefficient to its canonical representative mod
    p^k (used by the quadratic Hensel rounds)."""
    pk = ctx.p ** k
    return [WittScalar(ctx, tuple(c % pk for c in x.c)) for x in a]


def _trim_monic(ctx, a, length):
    """Drop zero padding above the known degree; the result must stay
    monic of that degree."""
    a = list(a)
    while len(a) > length:
        top = a.pop()
        assert top.is_zero(), "degree escaped during lifting"
    assert a[-1] == ctx.one
    return a


def _poly_zip(ctx, op, a, b):
    """Coefficientwise op (a raw ``WittContext`` op) of two polynomials,
    the shorter one padded with zeros."""
    m = max(len(a), len(b))
    zero = ctx.zero
    a = list(a) + [zero] * (m - len(a))
    b = list(b) + [zero] * (m - len(b))
    return [WittScalar(ctx, op(x.c, y.c)) for x, y in zip(a, b)]


def _poly_add_pad(ctx, a, b):
    return _poly_zip(ctx, ctx.add, a, b)


def _poly_sub(ctx, a, b):
    return _poly_zip(ctx, ctx.sub, a, b)


def segment_factorization(ctx, F):
    """Factor a monic polynomial with integer segment slopes into its
    root-valuation factors: returns [(valuation, monic factor)].

    Splits off the minimal-valuation segment by the shear x -> p^v x, a
    residue factorization y^k * (unit part), and Hensel lifting; recurses
    on the complementary factor.
    """
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
        # shear: F2(y) = F(p^lam y) / p^(r lam); integral by the polygon
        F2 = []
        for i, c in enumerate(F):
            shift = (r - i) * lam
            F2.append(c.divide_p(shift) if shift >= 0
                      else c * (ctx.p ** (-shift)))
        fbar = _gfp(ctx, F2)
        # unit-root part has degree `length`; the rest reduces to y^(r-len)
        k = r - length
        hbar = fbar[k:]
        inv = ctx.gf_inv(hbar[-1])
        hbar = [ctx.gf_mul(inv, c) for c in hbar]
        gbar = [tuple([0] * ctx.n)] * k + [tuple([1] + [0] * (ctx.n - 1))]
        gbar = _gf_poly_trim(ctx, gbar)
        G2, H2 = hensel_split(ctx, F2, gbar, hbar)
        # undo the shear on both factors
        H = [H2[i] * (ctx.p ** ((length - i) * lam))
             for i in range(len(H2))]
        G = [G2[i] * (ctx.p ** ((k - i) * lam)) for i in range(len(G2))]
        out.append((Fraction(lam), H))
        F = G


# ---------------------------------------------------------------------------
# isocrystals


class FIsocrystal:
    """A free module with a Frobenius-semilinear map, bijective after
    inverting p: phi = p^{-denominator} A sigma.

    ``_derived`` caches data computed from A, filled on first use by
    ``inverse_numerator``, ``end_frobenius``,
    ``core._conjugation_numerators`` and ``core.TangentSpace.of``.  A
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
    boosted precision on the defining matrix.
    """
    ctx = crystal.ctx
    n = ctx.n
    d = crystal.phi.denominator
    work = crystal
    for attempt in range(3):
        lam = work.linearization()
        F = charpoly(work.ctx, ring(work.ctx).wrap_mat(lam.rows))
        try:
            np_ = newton_polygon(work.ctx, F, loss=crystal.phi.loss)
            return [(Fraction(v, n) - d, m) for (v, m) in np_]
        except PrecisionExhausted:
            if attempt == 2:
                raise
            budget = crystal.rank * n * (1 + max(0, d)) + 8
            work = crystal.at_precision(work.ctx.N + budget)


class SlopeData:
    """Slope multiset, phi-equivariant projectors onto each isotypic
    summand, and the integral component lattices."""

    __slots__ = ("crystal", "slopes", "projectors", "components", "is_split")

    def __init__(self, crystal, slopes, projectors, components, is_split):
        self.crystal = crystal
        self.slopes = slopes
        self.projectors = projectors
        self.components = components
        self.is_split = is_split

    @property
    def slope_list(self):
        return [a for (a, _) in self.slopes]

    def multiplicity(self, a):
        for (b, m) in self.slopes:
            if b == a:
                return m
        return 0

    def hodge_numbers(self):
        """Per-slope codimension/dimension pairs ((1-a) r_a, a r_a)."""
        return {a: (Fraction(1 - a) * m, Fraction(a) * m)
                for (a, m) in self.slopes}


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
    F = charpoly(bctx, R.wrap_mat(lam_b))
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
        assert all(c.is_zero() for c in rem)
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
    m = len(fac) - 1
    # multiplication-by-q matrix in the power basis of Z_q[x]/(fac)
    cols = []
    basis = [ctx.zero] * m
    for j in range(m):
        xj = [ctx.zero] * j + [ctx.one]
        prod = poly_mul(ctx, q, xj)
        _, red = poly_divmod_monic(ctx, prod, fac)
        red = red + [ctx.zero] * (m - len(red))
        cols.append(red)
    rows = [[cols[j][i] for j in range(m)] for i in range(m)]
    inv_rows, vden = invert_matrix(ctx, rows)
    # w = inv * e_0 (the constant polynomial 1), scaled by p^{-vden}
    w = ring(ctx).wrap_col([inv_rows[i][0] for i in range(m)])
    return w, vden


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


def end_frobenius(crystal: FIsocrystal) -> SemilinearMap:
    """Conjugation action x -> phi x phi^{-1} on End(M), as a semilinear
    map on r^2 coordinates (independent of the denominator of phi);
    computed once per crystal."""
    if "end_phi" not in crystal._derived:
        inv_rows, vdet = crystal.inverse_numerator()
        crystal._derived["end_phi"] = sandwich_map(
            crystal.ctx, crystal.phi.rows, inv_rows, twist=1,
            denominator=vdet, loss=crystal.phi.loss)
    return crystal._derived["end_phi"]


class EndDecomposition:
    """The integral lattices V_plus, V_minus of the positive and negative
    Hom-block sums of End(M).  ``_derived`` caches what is computed from
    them on first use: ``o_minus()`` under ``"o_minus"``, each sign's
    ``carrier()`` under ``"carrier_plus"``/``"carrier_minus"``, and each
    pair set's ``signs.sign_modules`` under the set's ``pairs`` tuple."""

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
        them, so their closures run in its block coordinates."""
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

    def block_lattices(self, pairs):
        """(V_plus, V_minus) of a set of increasing slope pairs: cut out
        of the carriers in block coordinates when both have exact block
        rows, else built from the r^2 x r^2 block projectors."""
        plus, minus = self.carrier("plus"), self.carrier("minus")
        if plus.blocks is None or minus.blocks is None:
            return signed_block_lattices(self.crystal, self.slope_data,
                                         pairs)
        return plus.cut(pairs), minus.cut([(b, a) for (a, b) in pairs])

    def o_minus(self):
        """The largest negative stable lattice inside V_minus; computed
        once per decomposition."""
        if "o_minus" not in self._derived:
            from .core import largest_sub_dieudonne
            self._derived["o_minus"] = largest_sub_dieudonne(
                self.V_minus, self.crystal, mode="negative",
                carrier=self.carrier("minus"))
        return self._derived["o_minus"]


def block_projector(crystal, slope_data, pairs):
    """Projector onto the sum of Hom(W(src), W(dst)) blocks of
    End(M)[1/p] for the given (src, dst) slope pairs."""
    ctx = crystal.ctx
    acc = None
    for (src, dst) in pairs:
        term = _hom_block_map(ctx, slope_data, src, dst)
        acc = term if acc is None else acc.add(term)
    if acc is None:
        r2 = crystal.rank ** 2
        acc = SemilinearMap(ctx, [[ring(ctx).zero] * r2] * r2)
    return acc


def _hom_block_map(ctx, slope_data, src, dst):
    """x -> e_dst x e_src."""
    e_src = slope_data.projectors[src]
    e_dst = slope_data.projectors[dst]
    den = e_src.denominator + e_dst.denominator
    loss = max(e_src.loss, e_dst.loss) + min(e_src.denominator,
                                             e_dst.denominator)
    return sandwich_map(ctx, e_dst.rows, e_src.rows,
                        twist=0, denominator=den, loss=loss)


def signed_block_lattices(crystal, slope_data, pairs):
    """(V_plus, V_minus): the integral parts of the Hom-block sums over
    the increasing slope pairs (a, b) and over their reverses (b, a)."""
    return tuple(
        _projector_fixed_lattice(crystal.ctx,
                                 block_projector(crystal, slope_data, blocks))
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


def component_slopes(slope_data: SlopeData, alpha):
    """Slopes of the restriction of phi to an integral slope component
    (used to confirm the decomposition)."""
    comp = slope_data.components[alpha]
    sub = restrict_map(slope_data.crystal.phi, comp)
    return newton_slopes(FIsocrystal(slope_data.crystal.ctx, sub))
