"""The polynomial layer on raw coefficients, checked against the scalar
bodies it replaced.

``charpoly``, ``newton_polygon``, ``hensel_split``,
``segment_factorization`` and ``_poly_inverse_mod`` now take and return
raw coefficients of ``matrix.ring(ctx)``.  ``hensel_split(ctx, F, k)``
reads its residue split off F (y^k times F[k:] mod p) and starts from
the exact cofactors of that split (``_split_cofactors``), where the
reference takes any coprime residue pair and runs the extended Euclidean
algorithm over F_q (``_gf_ext_euclid``, kept as the cofactors' oracle).
The ``*_reference`` functions below are the former bodies with the
helpers they called, the residue-field toolkit (``_gf_*``, ``_lift_gf``,
``_gfp``) included, rewritten on the raw ``WittContext`` ops: they read
the context's coefficient tuples, and residue tuples that the plain-integer
F_p helpers ``_gf_add``, ``_gf_sub`` and ``_gf_is_zero`` combine.  Every
result must have equal coefficients, and every failure the same exception
type and message.

Inputs are seeded, at p in {2, 3}, n in {1, 2} and N in {12, 48, 256}:
matrices of rank at most 6 with p-divisible entries, and monic
polynomials that are products of single-segment factors of integral
slope.  At N = 12 the steeper products outrun the precision, which is
where ``PrecisionExhausted`` comes from; a fractional segment slope gives
``FieldTooSmall``.
"""

import random
from fractions import Fraction

import pytest

from dieudonne.errors import (DieudonneError, FieldTooSmall,
                              PrecisionExhausted)
from dieudonne.isocrystal import (_poly_inverse_mod, _power_table,
                                  _split_cofactors, charpoly, hensel_split,
                                  lower_hull, newton_polygon,
                                  segment_factorization, vec_to_mat)
from dieudonne.lattices import invert_matrix
from dieudonne.matrix import ring
from dieudonne.witt import make_context

import instances

CONTEXTS = [(p, n, N) for p in (2, 3) for n in (1, 2) for N in (12, 48, 256)]


# ---------------------------------------------------------------------------
# the former bodies


def poly_mul_reference(ctx, a, b):
    if not a or not b:
        return []
    out = [ctx.scalar(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ctx.is_zero(x):
            continue
        for j, y in enumerate(b):
            if not ctx.is_zero(y):
                out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return out


def poly_eval_matrix_reference(R, coeffs, rows):
    """A polynomial evaluated at a square raw matrix by Horner's rule,
    acc <- acc A + c I from the leading coefficient down: the former
    ``isocrystal.poly_eval_matrix``, which built the projector numerators
    before the power table."""
    r = len(rows)
    acc = [[R.zero] * r for _ in range(r)]
    for c in reversed(coeffs):
        acc = R.mul_mat(acc, rows)
        for i in range(r):
            acc[i][i] = R.add(acc[i][i], c)
    return acc


def poly_divmod_monic_reference(ctx, a, b):
    """Division with remainder by a monic divisor."""
    a = list(a)
    db = len(b) - 1
    assert b[-1] == ctx.scalar(1)
    q = [ctx.scalar(0)] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if ctx.is_zero(c):
            continue
        q[i - db] = c
        for k in range(db + 1):
            a[i - db + k] = ctx.sub(a[i - db + k], ctx.mul(c, b[k]))
    return q, a[:db]


def charpoly_reference(ctx, rows):
    """Characteristic polynomial det(xI - A), monic, low-degree-first,
    by the division-free Berkowitz expansion."""
    r = len(rows)
    one, zero = ctx.scalar(1), ctx.scalar(0)
    add, mul, is_zero = ctx.add, ctx.mul, ctx.is_zero
    if r == 0:
        return [one]
    coeffs = [one, ctx.neg(rows[0][0])]
    for k in range(1, r):
        # leading principal (k+1)x(k+1) block
        t = [one, ctx.neg(rows[k][k])]
        col = [rows[i][k] for i in range(k)]
        for j in range(k):
            s = zero
            for i in range(k):
                if not (is_zero(rows[k][i]) or is_zero(col[i])):
                    s = add(s, mul(rows[k][i], col[i]))
            t.append(ctx.neg(s))
            if j < k - 1:
                new_col = []
                for i in range(k):
                    acc = zero
                    for l in range(k):
                        if not (is_zero(rows[i][l]) or is_zero(col[l])):
                            acc = add(acc, mul(rows[i][l], col[l]))
                    new_col.append(acc)
                col = new_col
        new = [zero] * (k + 2)
        for i in range(k + 2):
            acc = zero
            for j in range(len(coeffs)):
                if 0 <= i - j < len(t):
                    acc = add(acc, mul(t[i - j], coeffs[j]))
            new[i] = acc
        coeffs = new
    return list(reversed(coeffs))  # low-first, monic


def newton_polygon_reference(ctx, coeffs, loss=0):
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
        v = ctx.valuation(c)
        if v >= neff:
            zeros.append(i)
        else:
            finite.append((i, v))
    if ctx.valuation(coeffs[-1]) != 0:
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


def _gfp(ctx, coeffs):
    return [tuple(x % ctx.p for x in c) for c in coeffs]


def _gf_add(ctx, a, b):
    return tuple((x + y) % ctx.p for x, y in zip(a, b))


def _gf_sub(ctx, a, b):
    return tuple((x - y) % ctx.p for x, y in zip(a, b))


def _gf_is_zero(ctx, a):
    return all(x % ctx.p == 0 for x in a)


def _gf_poly_trim(ctx, a):
    while a and _gf_is_zero(ctx, a[-1]):
        a = a[:-1]
    return a


def _gf_poly_mul(ctx, a, b):
    if not a or not b:
        return []
    zero = tuple([0] * ctx.n)
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if _gf_is_zero(ctx, x):
            continue
        for j, y in enumerate(b):
            out[i + j] = _gf_add(ctx, out[i + j], ctx.gf_mul(x, y))
    return _gf_poly_trim(ctx, out)


def _gf_poly_divmod(ctx, a, b):
    a = list(a)
    b = _gf_poly_trim(ctx, list(b))
    db = len(b) - 1
    inv = ctx.gf_inv(b[-1])
    q = [tuple([0] * ctx.n)] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if _gf_is_zero(ctx, c):
            continue
        f = ctx.gf_mul(c, inv)
        q[i - db] = f
        for k in range(db + 1):
            a[i - db + k] = _gf_sub(ctx, a[i - db + k], ctx.gf_mul(f, b[k]))
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
        out.append(_gf_sub(ctx, x, y))
    return _gf_poly_trim(ctx, out)


def _lift_gf(ctx, a):
    return [ctx.scalar(list(c)) for c in a]


def hensel_split_reference(ctx, F, gbar, hbar):
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
        gh = poly_mul_reference(ctx, g, h)
        e = _poly_reduce(ctx, _poly_sub(ctx, F, gh), k)
        se = poly_mul_reference(ctx, s, e)
        q, r = poly_divmod_monic_reference(ctx, se, h)
        te = poly_mul_reference(ctx, t, e)
        qg = poly_mul_reference(ctx, q, g)
        g = _poly_reduce(ctx, _poly_add_pad(ctx, g,
                                            _poly_add_pad(ctx, te, qg)), k)
        h = _poly_reduce(ctx, _poly_add_pad(ctx, h, r), k)
        g = _trim_monic(ctx, g, deg_g)
        h = _trim_monic(ctx, h, deg_h)
        # refresh the Bezout pair
        b = _poly_reduce(
            ctx, _poly_sub(ctx, _poly_add_pad(ctx, poly_mul_reference(ctx, s, g),
                                              poly_mul_reference(ctx, t, h)),
                           [ctx.scalar(1)]), k)
        sb = poly_mul_reference(ctx, s, b)
        c, d = poly_divmod_monic_reference(ctx, sb, h)
        s = _poly_reduce(ctx, _poly_sub(ctx, s, d), k)
        tb = poly_mul_reference(ctx, t, b)
        cg = poly_mul_reference(ctx, c, g)
        t = _poly_reduce(ctx, _poly_sub(ctx, t, _poly_add_pad(ctx, tb, cg)),
                         k)
        prec = k
    gh = poly_mul_reference(ctx, g, h)
    diff = _poly_sub(ctx, F, gh)
    if any(not ctx.is_zero(c) for c in diff):
        raise PrecisionExhausted("Hensel lifting failed to converge")
    return g, h


def _poly_reduce(ctx, a, k):
    """Truncate every coefficient to its canonical representative mod
    p^k (used by the quadratic Hensel rounds)."""
    pk = ctx.p ** k
    return [tuple(c % pk for c in x) for x in a]


def _trim_monic(ctx, a, length):
    """Drop zero padding above the known degree; the result must stay
    monic of that degree."""
    a = list(a)
    while len(a) > length:
        top = a.pop()
        assert ctx.is_zero(top), "degree escaped during lifting"
    assert a[-1] == ctx.scalar(1)
    return a


def _poly_zip(ctx, op, a, b):
    """Coefficientwise op (a raw ``WittContext`` op) of two polynomials,
    the shorter one padded with zeros."""
    m = max(len(a), len(b))
    zero = ctx.scalar(0)
    a = list(a) + [zero] * (m - len(a))
    b = list(b) + [zero] * (m - len(b))
    return [op(x, y) for x, y in zip(a, b)]


def _poly_add_pad(ctx, a, b):
    return _poly_zip(ctx, ctx.add, a, b)


def _poly_sub(ctx, a, b):
    return _poly_zip(ctx, ctx.sub, a, b)


def segment_factorization_reference(ctx, F):
    """Factor a monic polynomial with integer segment slopes into its
    root-valuation factors: returns [(valuation, monic factor)].

    Splits off the minimal-valuation segment by the shear x -> p^v x, a
    residue factorization y^k * (unit part), and Hensel lifting; recurses
    on the complementary factor.
    """
    F = list(F)
    out = []
    while True:
        np_ = newton_polygon_reference(ctx, F)
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
            F2.append(ctx.divide_p_power(c, shift) if shift >= 0
                      else ctx.mul_int(c, ctx.p ** (-shift)))
        fbar = _gfp(ctx, F2)
        # unit-root part has degree `length`; the rest reduces to y^(r-len)
        k = r - length
        hbar = fbar[k:]
        inv = ctx.gf_inv(hbar[-1])
        hbar = [ctx.gf_mul(inv, c) for c in hbar]
        gbar = [tuple([0] * ctx.n)] * k + [tuple([1] + [0] * (ctx.n - 1))]
        gbar = _gf_poly_trim(ctx, gbar)
        G2, H2 = hensel_split_reference(ctx, F2, gbar, hbar)
        # undo the shear on both factors
        H = [ctx.mul_int(H2[i], ctx.p ** ((length - i) * lam))
             for i in range(len(H2))]
        G = [ctx.mul_int(G2[i], ctx.p ** ((k - i) * lam))
             for i in range(len(G2))]
        out.append((Fraction(lam), H))
        F = G


def poly_inverse_mod_reference(ctx, q, fac):
    """(w, vden) with q w = p^{-vden}-unit = 1 in Z_q[x]/(fac):
    w has denominator p^vden pulled out, i.e. q*w = p^vden mod fac."""
    m = len(fac) - 1
    # multiplication-by-q matrix in the power basis of Z_q[x]/(fac)
    cols = []
    for j in range(m):
        xj = [ctx.scalar(0)] * j + [ctx.scalar(1)]
        prod = poly_mul_reference(ctx, q, xj)
        _, red = poly_divmod_monic_reference(ctx, prod, fac)
        red = red + [ctx.scalar(0)] * (m - len(red))
        cols.append(red)
    rows = [[cols[j][i] for j in range(m)] for i in range(m)]
    inv_rows, vden = invert_matrix(ctx, instances.raw(ctx, rows))
    # w = inv * e_0 (the constant polynomial 1), scaled by p^{-vden}
    w = [ctx.scalar(inv_rows[i][0]) for i in range(m)]
    return w, vden


# ---------------------------------------------------------------------------
# inputs and comparison


def outcome(fn, *args):
    """The value of fn, or the type and message of the error it raises.
    The degree check of the reference Hensel lifting is an assert, and
    pytest appends its introspection to the asserts of this module, so
    only the first line of a message is kept."""
    try:
        return fn(*args)
    except (DieudonneError, AssertionError) as exc:
        return type(exc), str(exc).split("\n")[0]


def rand_scalar(ctx, rng, vmin=0):
    """A scalar of valuation at least vmin (a unit when vmin is None)."""
    p = ctx.p
    if vmin is None:
        c = [rng.randrange(1, p) + p * rng.randrange(p ** (ctx.N - 1))]
        return ctx.scalar(c + [rng.randrange(ctx.pN)
                               for _ in range(ctx.n - 1)])
    return ctx.scalar([p ** vmin * rng.randrange(ctx.pN)
                       for _ in range(ctx.n)])


def rand_matrix(ctx, rng, r):
    return [[rand_scalar(ctx, rng, rng.choice((0, 0, 1, 2)))
             for _ in range(r)] for _ in range(r)]


def segment_poly(ctx, rng, slope, m):
    """x^m + sum_i c_i p^(slope (m - i)) x^i with c_0 a unit: one Newton
    segment, m roots of valuation ``slope``."""
    out = [rand_scalar(ctx, rng, slope * (m - i)) for i in range(m)]
    out[0] = ctx.mul_int(rand_scalar(ctx, rng, None), ctx.p ** (slope * m))
    return out + [ctx.scalar(1)]


def segment_product(ctx, rng):
    """A monic polynomial of degree at most 6 with integral segment
    slopes: a product of segment polynomials of distinct slopes."""
    slopes = rng.sample(range(4), rng.choice((1, 2, 2, 3)))
    F = [ctx.scalar(1)]
    for v in slopes:
        F = poly_mul_reference(ctx, F, segment_poly(ctx, rng, v,
                                                    rng.randint(1, 2)))
    return F


def residue_poly(ctx, rng, deg):
    """A monic residue polynomial of the given degree, as tuples."""
    p = ctx.p
    return [tuple(rng.randrange(p) for _ in range(ctx.n))
            for _ in range(deg)] + [tuple([1] + [0] * (ctx.n - 1))]


def raw(R, result):
    """A reference result in raw coefficients (errors pass through): a
    tuple of ints is a coefficient tuple, any other tuple a structure."""
    if isinstance(result, list):
        return [raw(R, x) for x in result]
    if isinstance(result, tuple) and isinstance(result[0], type):
        return result
    if isinstance(result, tuple) and all(type(x) is int for x in result):
        return R.raw_col([result])[0]
    if isinstance(result, tuple):
        return tuple(raw(R, x) for x in result)
    return result


@pytest.fixture(params=CONTEXTS, ids=lambda c: "p%d_n%d_N%d" % c)
def setting(request):
    p, n, N = request.param
    ctx = make_context(p, n, N)
    return ctx, ring(ctx), random.Random(1000 * p + 100 * n + N)


# ---------------------------------------------------------------------------
# the checks


def sparse_poly(ctx, rng, length):
    """A polynomial of the given length, about a third of its
    coefficients (the leading one included) zero."""
    return [ctx.scalar(0) if rng.random() < 0.35
            else rand_scalar(ctx, rng, rng.choice((0, 1, 3)))
            for _ in range(length)]


def test_poly_mul_matches_reference(setting):
    """The ring's product kernel (sums reduced once at n = 1, one axpy
    per coefficient at n > 1) on zero coefficients, unequal lengths and
    empty operands."""
    ctx, R, rng = setting
    zero = ctx.scalar(0)
    pairs = [([], []), ([], [ctx.scalar(1)]), ([rand_scalar(ctx, rng)], []),
             ([zero, zero], [rand_scalar(ctx, rng), zero, zero])]
    pairs += [(sparse_poly(ctx, rng, rng.randint(1, 7)),
               sparse_poly(ctx, rng, rng.randint(1, 7))) for _ in range(20)]
    for a, b in pairs:
        want = R.raw_col(poly_mul_reference(ctx, a, b))
        assert R.poly_mul(R.raw_col(a), R.raw_col(b)) == want
        assert R.poly_mul(R.raw_col(b), R.raw_col(a)) == want


def test_power_table_numerators_match_horner(setting):
    """A projector numerator of degree below the rank r is one vec_mat
    of its coefficients against the table of L^0, ..., L^(r-1), and
    equals its Horner evaluation at L."""
    ctx, R, rng = setting
    for r in (1, 2, 3, 5):
        A = R.raw_mat(rand_matrix(ctx, rng, r))
        table = _power_table(R, A)
        assert len(table) == r
        for length in range(1, r + 1):
            c = R.raw_col(sparse_poly(ctx, rng, length))
            assert (vec_to_mat(R.vec_mat(c, table), r)
                    == poly_eval_matrix_reference(R, c, A))


def test_charpoly_and_polygon_match_reference(setting):
    ctx, R, rng = setting
    for r in range(7):
        for _ in range(2):
            rows = rand_matrix(ctx, rng, r)
            got = charpoly(ctx, R.raw_mat(rows))
            want = charpoly_reference(ctx, rows)
            assert got == raw(R, want)
            for loss in (0, 2):
                assert (outcome(newton_polygon, ctx, got, loss)
                        == outcome(newton_polygon_reference, ctx, want,
                                   loss))


def test_segment_factorization_matches_reference(setting):
    ctx, R, rng = setting
    for _ in range(6):
        F = segment_product(ctx, rng)
        got = outcome(segment_factorization, ctx, R.raw_col(F))
        want = outcome(segment_factorization_reference, ctx, F)
        assert got == raw(R, want)
        if isinstance(got, tuple):
            continue
        # the partial-fraction inverse of each cofactor, as slope_split
        # takes it
        for _, fac in want:
            q, rem = poly_divmod_monic_reference(ctx, F, fac)
            assert all(ctx.is_zero(c) for c in rem)
            assert (outcome(_poly_inverse_mod, ctx, R.raw_col(q),
                            R.raw_col(fac))
                    == raw(R, outcome(poly_inverse_mod_reference, ctx, q,
                                      fac)))


def test_segment_factorization_raises_like_reference(setting):
    """A segment of slope N/2 and length 2 has a constant term p^N = 0,
    so the polygon is not resolved at the working precision."""
    ctx, R, rng = setting
    F = poly_mul_reference(ctx, segment_poly(ctx, rng, 0, 1),
                           segment_poly(ctx, rng, ctx.N // 2, 2))
    got = outcome(segment_factorization, ctx, R.raw_col(F))
    assert got[0] is PrecisionExhausted
    assert got == outcome(segment_factorization_reference, ctx, F)


def split_residues(ctx, rng, k, unit=True):
    """(y^k, hbar) as residue tuples: hbar monic of degree 1 to 3, its
    constant term a unit, or zero when ``unit`` is false."""
    zero, one = tuple([0] * ctx.n), tuple([1] + [0] * (ctx.n - 1))
    hbar = residue_poly(ctx, rng, rng.randint(1, 3))
    hbar[0] = ((rng.randrange(1, ctx.p),) + hbar[0][1:]) if unit else zero
    return [zero] * k + [one], hbar


def test_hensel_split_matches_reference(setting):
    """F = y^k lift(hbar) + p E with deg E < deg F: the split read off F
    lifts to the reference's factors of (y^k, hbar)."""
    ctx, R, rng = setting
    for _ in range(6):
        k = rng.randint(1, 3)
        gbar, hbar = split_residues(ctx, rng, k)
        F = poly_mul_reference(ctx, _lift_gf(ctx, gbar), _lift_gf(ctx, hbar))
        F = [ctx.add(c, rand_scalar(ctx, rng, 1)) if i < len(F) - 1 else c
             for i, c in enumerate(F)]
        got = hensel_split(ctx, R.raw_col(F), k)
        assert got == raw(R, hensel_split_reference(ctx, F, gbar, hbar))
        assert R.poly_mul(*got) == R.raw_col(F)


def test_split_cofactors_are_the_residue_bezout_pair(setting):
    """s y^k + t hbar = 1 with deg t < k and deg s < deg hbar: the pair
    the extended Euclidean algorithm gives, coefficient for
    coefficient."""
    ctx, R, rng = setting
    for _ in range(6):
        k = rng.randint(1, 4)
        gbar, hbar = split_residues(ctx, rng, k)
        assert (_split_cofactors(R, ctx.p, R.raw_col(hbar), k)
                == raw(R, _gf_ext_euclid(ctx, gbar, hbar)))


def test_hensel_split_reports_a_false_factorization(setting):
    """F[k] = 0 mod p: y^k times F[k:] is no coprime split of F mod p,
    and the library says so instead of dividing by a non-unit."""
    ctx, R, rng = setting
    for k in (1, 2):
        gbar, hbar = split_residues(ctx, rng, k, unit=False)
        F = poly_mul_reference(ctx, _lift_gf(ctx, gbar), _lift_gf(ctx, hbar))
        with pytest.raises(PrecisionExhausted, match="coprime cofactor"):
            hensel_split(ctx, R.raw_col(F), k)


def test_segment_factorization_refuses_a_fractional_slope(setting):
    """(x^2 - p)(x - p^2) has two roots of valuation 1/2: no integral
    shear splits them off."""
    ctx, R, _ = setting
    p = ctx.p
    F = R.raw_col([p ** 3, -p, -p ** 2, 1])
    with pytest.raises(FieldTooSmall, match="stay fractional"):
        segment_factorization(ctx, F)


@pytest.mark.parametrize("p, N", [(2, 270), (3, 256)])
def test_hensel_lifting_keeps_its_operands_short(monkeypatch, p, N):
    """Every reduction drops trailing zeros, so no operand of a product
    during lifting is longer than F, however many quadratic rounds run
    (eight at N = 256, nine at N = 270): (x - p)(x - 1) from the residue
    factors x and x - 1."""
    ctx = make_context(p, 1, N)
    R = ring(ctx)
    F = R.raw_col([p, -1 - p, 1])
    lengths = []
    poly_mul = R.poly_mul

    def recording(a, b):
        lengths.append(max(len(a), len(b)))
        return poly_mul(a, b)

    monkeypatch.setattr(R, "poly_mul", recording)
    G, H = hensel_split(ctx, F, 1)
    assert (G, H) == (R.raw_col([-p, 1]), R.raw_col([-1, 1]))
    assert poly_mul(G, H) == F
    assert max(lengths) <= len(F)


def test_poly_inverse_mod_matches_reference(setting):
    ctx, R, rng = setting
    for _ in range(6):
        fac = [rand_scalar(ctx, rng, rng.choice((0, 1)))
               for _ in range(rng.randint(1, 4))] + [ctx.scalar(1)]
        q = [rand_scalar(ctx, rng, rng.choice((0, 1)))
             for _ in range(rng.randint(1, 5))]
        got = outcome(_poly_inverse_mod, ctx, R.raw_col(q), R.raw_col(fac))
        assert got == raw(R, outcome(poly_inverse_mod_reference, ctx, q,
                                     fac))
