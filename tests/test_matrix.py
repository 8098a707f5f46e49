"""The shared matrix helpers, checked on seeded random inputs against the
sympy product, a plain triple loop, and the accumulate-everything series
product they replaced."""

import random

import sympy

from dieudonne.matrix import (identity, mat_add, mat_mul, nilpotent_inverse,
                              transport)
from dieudonne.series import TruncatedSeries
from dieudonne.witt import make_context


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
            got = mat_mul(scalars(ctx, a), scalars(ctx, b), ctx.zero)
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
            assert mat_mul(a, b, ctx.zero) == triple_loop(a, b, ctx.zero)


def random_series_matrix(rng, ctx, r, c, nvars, dmax):
    out = []
    for _ in range(r):
        row = []
        for _ in range(c):
            coeffs = {}
            if rng.random() < 0.6:
                for _ in range(rng.randrange(1, 4)):
                    expo = tuple(rng.randrange(3) for _ in range(nvars))
                    coeffs[expo] = ctx.scalar(rng.randrange(1, ctx.pN))
            row.append(TruncatedSeries(ctx, nvars, dmax, coeffs))
        out.append(row)
    return out


def test_mat_mul_series_matches_accumulating_product():
    # full validity windows, as every library caller builds them
    rng = random.Random(13)
    ctx = make_context(3, 1, 8)
    nvars, dmax = 2, 4
    zero = TruncatedSeries.zero(ctx, nvars, dmax)
    for r, m, c in [(2, 2, 2), (3, 2, 4), (1, 3, 1)]:
        a = random_series_matrix(rng, ctx, r, m, nvars, dmax)
        b = random_series_matrix(rng, ctx, m, c, nvars, dmax)
        got = mat_mul(a, b, zero)
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
    zero = TruncatedSeries.zero(ctx, nvars, dmax)
    a = random_series_matrix(rng, ctx, 3, 3, nvars, dmax)
    b = random_series_matrix(rng, ctx, 3, 3, nvars, dmax)
    for mat in (a, b):
        for row in mat:
            for s in row:
                s.valid = rng.randrange(dmax + 1)
    for g_row, w_row in zip(mat_mul(a, b, zero), accumulate_all(a, b)):
        for g, w in zip(g_row, w_row):
            assert g.coeffs == w.coeffs
            assert g.valid >= w.valid


def test_nilpotent_inverse_scalars():
    rng = random.Random(15)
    ctx = make_context(2, 2, 16)
    for r in (1, 2, 5):
        # strictly upper triangular, hence N^r = 0
        n_mat = [[ctx.scalar([rng.randrange(ctx.pN) for _ in range(2)])
                  if j > i else ctx.zero for j in range(r)]
                 for i in range(r)]
        ident = identity(r, ctx.zero, ctx.one)
        one_plus = mat_add(ident, n_mat)
        inv = nilpotent_inverse(n_mat, ctx.zero, ctx.one, r)
        assert mat_mul(inv, one_plus, ctx.zero) == ident
        assert mat_mul(one_plus, inv, ctx.zero) == ident


def test_nilpotent_inverse_series():
    # positive-degree series matrices vanish past the truncation degree
    rng = random.Random(16)
    ctx = make_context(5, 1, 10)
    nvars, dmax, r = 2, 4, 3
    zero = TruncatedSeries.zero(ctx, nvars, dmax)
    one = TruncatedSeries.constant(ctx, nvars, dmax, ctx.one)
    x = [TruncatedSeries.variable(ctx, nvars, dmax, i) for i in range(nvars)]
    n_mat = [[x[rng.randrange(nvars)] * ctx.scalar(rng.randrange(ctx.pN))
              for _ in range(r)] for _ in range(r)]
    ident = identity(r, zero, one)
    one_plus = mat_add(ident, n_mat)
    inv = nilpotent_inverse(n_mat, zero, one, dmax)
    for prod in (mat_mul(inv, one_plus, zero), mat_mul(one_plus, inv, zero)):
        for i in range(r):
            for j in range(r):
                assert (prod[i][j] - ident[i][j]).is_zero()


def test_transport_round_trip():
    rng = random.Random(17)
    ctx = make_context(3, 2, 12)
    big = ctx.with_precision(30)
    rows = [[ctx.scalar([rng.randrange(ctx.pN) for _ in range(2)])
             for _ in range(4)] for _ in range(3)]
    lifted = transport(big, rows)
    assert all(x.ctx is big for row in lifted for x in row)
    assert [[x.c for x in row] for row in lifted] == \
        [[x.c for x in row] for row in rows]
    assert transport(ctx, lifted) == rows
    # publishing a boosted value truncates it modulo the target's p^N
    wide = [[big.scalar(big.pN - 1)]]
    assert transport(ctx, wide) == [[ctx.scalar(ctx.pN - 1)]]
