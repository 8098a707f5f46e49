"""The matrix kernels of the raw-coefficient rings, checked on seeded
random inputs against the sympy product, a plain triple loop on
``WittScalar`` entries, and the accumulate-everything series product."""

import random

import sympy

from dieudonne.matrix import _EntryRing, ring
from dieudonne.series import TruncatedSeries
from dieudonne.witt import WittContext, make_context


def random_ints(rng, rows, cols, zero_share):
    return [[0 if rng.random() < zero_share else rng.randrange(-50, 50)
             for _ in range(cols)] for _ in range(rows)]


def scalars(ctx, ints):
    return [[ctx.scalar(x) for x in row] for row in ints]


def triple_loop(a, b, zero):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def accumulate_all(a, b):
    # every term enters the sum, zero or not, so every validity window
    # reaches the result
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = None
            for k in range(len(b)):
                t = a[i][k] * b[k][j]
                acc = t if acc is None else acc + t
            row.append(acc)
        out.append(row)
    return out


def test_mat_mul_matches_sympy_n1():
    rng = random.Random(11)
    ctx = make_context(5, 1, 12)
    for shape in [(1, 1, 1), (3, 3, 3), (2, 5, 3), (4, 1, 6), (6, 4, 1)]:
        r, m, c = shape
        for zero_share in (0.0, 0.5, 0.9, 1.0):
            a = random_ints(rng, r, m, zero_share)
            b = random_ints(rng, m, c, zero_share)
            want = sympy.Matrix(a) * sympy.Matrix(b)
            R = ring(ctx)
            got = R.wrap_mat(R.mul_mat(R.raw_mat(scalars(ctx, a)),
                                       R.raw_mat(scalars(ctx, b))))
            assert [[x.c[0] for x in row] for row in got] == \
                [[int(want[i, j]) % ctx.pN for j in range(c)]
                 for i in range(r)]


def test_mat_mul_matches_triple_loop_n3():
    rng = random.Random(12)
    ctx = make_context(3, 3, 10)

    def entry(zero_share):
        if rng.random() < zero_share:
            return ctx.zero
        return ctx.scalar([rng.randrange(ctx.pN) for _ in range(3)])

    for r, m, c in [(3, 3, 3), (2, 4, 5), (5, 2, 1)]:
        for zero_share in (0.0, 0.6):
            a = [[entry(zero_share) for _ in range(m)] for _ in range(r)]
            b = [[entry(zero_share) for _ in range(c)] for _ in range(m)]
            R = ring(ctx)
            got = R.wrap_mat(R.mul_mat(R.raw_mat(a), R.raw_mat(b)))
            assert got == triple_loop(a, b, ctx.zero)


def random_series_matrix(rng, ctx, r, c, nvars, dmax):
    R = ring(ctx)
    out = []
    for _ in range(r):
        row = []
        for _ in range(c):
            coeffs = {}
            if rng.random() < 0.6:
                for _ in range(rng.randrange(1, 4)):
                    expo = tuple(rng.randrange(3) for _ in range(nvars))
                    coeffs[expo] = R.of_int(rng.randrange(1, ctx.pN))
            row.append(TruncatedSeries(R, nvars, dmax, coeffs))
        out.append(row)
    return out


def test_mat_mul_series_matches_accumulating_product():
    # full validity windows, as every library caller builds them
    rng = random.Random(13)
    ctx = make_context(3, 1, 8)
    nvars, dmax = 2, 4
    R = ring(ctx)
    zero = TruncatedSeries.zero(R, nvars, dmax)
    one = TruncatedSeries.constant(R, nvars, dmax, R.one)
    for r, m, c in [(2, 2, 2), (3, 2, 4), (1, 3, 1)]:
        a = random_series_matrix(rng, ctx, r, m, nvars, dmax)
        b = random_series_matrix(rng, ctx, m, c, nvars, dmax)
        got = _EntryRing(zero, one).mul_mat(a, b)
        want = accumulate_all(a, b)
        for grow, wrow in zip(got, want):
            for g, w in zip(grow, wrow):
                assert g.coeffs == w.coeffs
                assert g.valid == w.valid


def test_mat_mul_series_skipped_zeros_keep_windows():
    # a zero entry is exactly zero: the product's window is never
    # narrower than the accumulating product's, and coefficients agree
    rng = random.Random(14)
    ctx = make_context(3, 1, 8)
    nvars, dmax = 1, 5
    R = ring(ctx)
    zero = TruncatedSeries.zero(R, nvars, dmax)
    one = TruncatedSeries.constant(R, nvars, dmax, R.one)
    a = random_series_matrix(rng, ctx, 3, 3, nvars, dmax)
    b = random_series_matrix(rng, ctx, 3, 3, nvars, dmax)
    for mat in (a, b):
        for row in mat:
            for s in row:
                s.valid = rng.randrange(dmax + 1)
    got = _EntryRing(zero, one).mul_mat(a, b)
    for g_row, w_row in zip(got, accumulate_all(a, b)):
        for g, w in zip(g_row, w_row):
            assert g.coeffs == w.coeffs
            assert g.valid >= w.valid


def test_nilpotent_inverse_scalars():
    rng = random.Random(15)
    ctx = make_context(2, 2, 16)
    R = ring(ctx)
    for r in (1, 2, 5):
        # strictly upper triangular, hence N^r = 0
        n_mat = R.raw_mat(
            [[ctx.scalar([rng.randrange(ctx.pN) for _ in range(2)])
              if j > i else ctx.zero for j in range(r)] for i in range(r)])
        ident = R.identity(r)
        one_plus = R.add_mat(ident, n_mat)
        inv = R.nilpotent_inverse(n_mat, r)
        assert R.mul_mat(inv, one_plus) == ident
        assert R.mul_mat(one_plus, inv) == ident


def test_nilpotent_inverse_series():
    # positive-degree series matrices vanish past the truncation degree
    rng = random.Random(16)
    ctx = make_context(5, 1, 10)
    nvars, dmax, r = 2, 4, 3
    R = ring(ctx)
    zero = TruncatedSeries.zero(R, nvars, dmax)
    one = TruncatedSeries.constant(R, nvars, dmax, R.one)
    x = [TruncatedSeries.variable(R, nvars, dmax, i) for i in range(nvars)]
    n_mat = [[x[rng.randrange(nvars)] * R.of_int(rng.randrange(ctx.pN))
              for _ in range(r)] for _ in range(r)]
    S = _EntryRing(zero, one)
    ident = S.identity(r)
    one_plus = S.add_mat(ident, n_mat)
    inv = S.nilpotent_inverse(n_mat, dmax)
    for prod in (S.mul_mat(inv, one_plus), S.mul_mat(one_plus, inv)):
        for i in range(r):
            for j in range(r):
                assert (prod[i][j] - ident[i][j]).is_zero()


def test_transport_round_trip():
    # moving raw entries between precisions is one raw_mat pass of the
    # target ring
    rng = random.Random(17)
    ctx = make_context(3, 2, 12)
    big = ctx.with_precision(30)
    R, B = ring(ctx), ring(big)
    scal = [[ctx.scalar([rng.randrange(ctx.pN) for _ in range(2)])
             for _ in range(4)] for _ in range(3)]
    rows = R.raw_mat(scal)
    lifted = B.raw_mat(rows)
    assert all(x.ctx is big for row in B.wrap_mat(lifted) for x in row)
    assert [[x.c for x in row] for row in B.wrap_mat(lifted)] == \
        [[x.c for x in row] for row in scal]
    assert R.wrap_mat(R.raw_mat(lifted)) == scal
    # publishing a boosted value truncates it modulo the target's p^N
    wide = B.raw_mat([[big.scalar(big.pN - 1)]])
    assert R.wrap_mat(R.raw_mat(wide)) == [[ctx.scalar(ctx.pN - 1)]]


def test_ring_is_built_once_per_context_object():
    # cached by identity: an equal context built outside make_context
    # keeps its own ring, whose raw_col takes only its own scalars
    for p, n in [(5, 1), (2, 3)]:
        ctx = make_context(p, n, 12)
        assert ring(ctx) is ring(ctx)
        twin = WittContext(p, n, 12)
        assert twin == ctx and ring(twin) is not ring(ctx)
        assert ring(twin).ctx is twin
        assert ring(twin).raw_col([twin.scalar(3)]) == \
            ring(ctx).raw_col([ctx.scalar(3)])


def test_frob_mat_is_entrywise_frobenius():
    # sigma^e on every entry, compared with the scalar Frobenius; the
    # matrix itself comes back when e = 0
    rng = random.Random(20)
    for p, n, twists in [(2, 3, range(3)), (5, 1, range(2))]:
        ctx = make_context(p, n, 9)
        R = ring(ctx)
        scal = [[ctx.scalar([rng.randrange(p ** 9) for _ in range(n)])
                 for _ in range(4)] for _ in range(3)]
        m = R.raw_mat(scal)
        for e in twists:
            want = [[x.frobenius(e) for x in row] for row in scal]
            assert R.wrap_mat(R.frob_mat(m, e)) == want, (p, n, e)
        assert R.frob_mat(m, 0) is m


def test_outer_matches_integer_outer_products():
    # t f^T flattened row-major, against the products of plain integers
    # (negative ones among them) at n = 1 and of their Z_p embeddings at
    # n = 3, and against the scalar product on entries off Z_p at n = 3
    rng = random.Random(21)
    for p, n in [(5, 1), (3, 1), (2, 3), (3, 3)]:
        ctx = make_context(p, n, 10)
        R = ring(ctx)
        for r, c in [(1, 1), (3, 3), (2, 5), (4, 1)]:
            for zero_share in (0.0, 0.5, 1.0):
                t, f = (random_ints(rng, 1, k, zero_share)[0] for k in (r, c))
                want = R.raw_col([a * b for a in t for b in f])
                assert R.outer(R.raw_col(t), R.raw_col(f)) == want
        if n > 1:
            t = [ctx.scalar([rng.randrange(ctx.pN) for _ in range(n)])
                 for _ in range(3)]
            f = [ctx.scalar([rng.randrange(ctx.pN) for _ in range(n)])
                 for _ in range(2)] + [ctx.zero, ctx.one]
            got = R.wrap_col(R.outer(R.raw_col(t), R.raw_col(f)))
            assert got == [a * b for a in t for b in f]
