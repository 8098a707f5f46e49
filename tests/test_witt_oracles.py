"""The Z_p shortcut of the raw Witt ring ops, checked against the general
bodies it bypasses.

An operand whose coordinates above g^0 vanish lies in Z_p, and
``WittContext.mul``, ``unit_inverse``, ``frobenius`` and
``_TupleRing.scale``/``axpy`` treat it as one integer; ``_TupleRing.dot``
allocates and reduces nothing for a row and column with no nonzero
product, and ``_TupleRing.vec_mat`` (the row combination under
``mul_mat``) reduces each output entry once, taking a Z_p entry of the
row as one integer.  The ``*_reference`` functions below are the former
bodies, kept verbatim apart from taking the context or ring as an
argument and calling each other instead of the library ops, so that no
shortcut reaches the oracle (``vec_mat_reference`` is one
``dot_reference`` per column).  Inputs are seeded and mix Z_p entries
(0, 1, p^k, units, non-units) with general ones.
"""

import itertools
import random

import pytest

from dieudonne import problems
from dieudonne.cli import load_corpus
from dieudonne.matrix import ring
from dieudonne.witt import WittContext, make_context

RINGS = [(2, 2), (3, 3), (5, 3), (2, 4)]
PRECISIONS = [4, 12, 48]


# ---------------------------------------------------------------------------
# the former bodies


def mul_reference(self, a, b):
    pN = self.pN
    n = self.n
    if n == 1:
        return ((a[0] * b[0]) % pN,)
    prod = [0] * (2 * n - 1)
    for i in range(n):
        ai = a[i]
        if ai:
            for j in range(n):
                prod[i + j] += ai * b[j]
    return self.reduce_product(prod)


def unit_inverse_reference(self, a):
    """Inverse of a unit scalar, by residue inversion plus Hensel lifting."""
    if self.valuation(a) != 0:
        raise ZeroDivisionError("scalar is not a unit")
    p = self.p
    b = self.gf_inv(tuple(x % p for x in a))
    prec = 1
    while prec < self.N:
        # b <- b (2 - a b), doubling the precision each round
        ab = mul_reference(self, a, b)
        two_minus = self.sub(self.from_int(2), ab)
        b = mul_reference(self, b, two_minus)
        prec *= 2
    return b


def frobenius_reference(self, a, e=1):
    """sigma^e applied to a raw coefficient tuple (e taken mod n)."""
    e %= self.n
    if e == 0:
        return tuple(a)
    m = self._frob_mats[e]
    n, pN = self.n, self.pN
    return tuple(sum(m[i][j] * a[j] for j in range(n)) % pN
                 for i in range(n))


def axpy_reference(R, y, q, x):
    sub_, zero = R.sub, R.zero
    return [a if b == zero else sub_(a, mul_reference(R.ctx, q, b))
            for a, b in zip(y, x)]


def scale_reference(R, x, u):
    return [mul_reference(R.ctx, a, u) for a in x]


def dot_reference(R, row, col):
    # the products are summed as unreduced polynomials and reduced once
    n, zero = R.ctx.n, R.zero
    acc = [0] * (2 * n - 1)
    for a, x in zip(row, col):
        if a == zero or x == zero:
            continue
        for i, ai in enumerate(a):
            if ai:
                for j, xj in enumerate(x):
                    acc[i + j] += ai * xj
    return R.ctx.reduce_product(acc)


def vec_mat_reference(R, row, b):
    """The former row of ``mul_mat``: one dot per column of b."""
    return [dot_reference(R, row, col) for col in zip(*b)]


# ---------------------------------------------------------------------------
# seeded inputs


def in_zp(ctx, rng):
    """0, 1, p^k, a unit and a non-unit of Z_p, as raw tuples."""
    p, N = ctx.p, ctx.N
    unit = rng.randrange(1, ctx.pN)
    while unit % p == 0:
        unit = rng.randrange(1, ctx.pN)
    values = [0, 1, ctx.pN - 1, p ** rng.randrange(1, N), unit,
              unit * p ** rng.randrange(1, N)]
    return [ctx.from_int(v) for v in values]


def general(ctx, rng, count):
    """Entries with some coordinate above g^0 nonzero: units, p-multiples
    and entries whose g^0 coordinate vanishes."""
    p, N, n = ctx.p, ctx.N, ctx.n
    out = []
    while len(out) < count:
        k = rng.choice((0, 0, 1, N // 2, N - 1))
        x = tuple(rng.randrange(ctx.pN) * p ** k % ctx.pN for _ in range(n))
        if len(out) % 3 == 2:
            x = (0,) + x[1:]
        if any(x[1:]):
            out.append(x)
    return out


def entries(ctx, rng):
    return in_zp(ctx, rng) + general(ctx, rng, 8)


def contexts():
    for (p, n), N in itertools.product(RINGS, PRECISIONS):
        yield pytest.param(p, n, N, id=f"p{p}-n{n}-N{N}")


# ---------------------------------------------------------------------------
# the checks


@pytest.mark.parametrize("p, n, N", contexts())
def test_mul_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    xs = entries(ctx, random.Random(7 * p + n + N))
    for a, b in itertools.product(xs, repeat=2):
        assert ctx.mul(a, b) == mul_reference(ctx, a, b)


@pytest.mark.parametrize("p, n, N", contexts())
def test_unit_inverse_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    outcomes = set()
    for a in entries(ctx, random.Random(11 * p + n + N)):
        try:
            want = unit_inverse_reference(ctx, a)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                ctx.unit_inverse(a)
            outcomes.add("raised")
            continue
        assert ctx.unit_inverse(a) == want
        outcomes.add("inverted" if any(a[1:]) else "inverted in Z_p")
    assert outcomes == {"raised", "inverted", "inverted in Z_p"}


@pytest.mark.parametrize("p, n, N", contexts())
def test_frobenius_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    for a in entries(ctx, random.Random(13 * p + n + N)):
        for e in range(-1, n + 1):
            assert ctx.frobenius(a, e) == frobenius_reference(ctx, a, e)


@pytest.mark.parametrize("p, n, N", contexts())
def test_scale_and_axpy_match_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(17 * p + n + N)
    xs = entries(ctx, rng)
    for _ in range(4):
        # vectors with zero entries, Z_p entries and general entries
        x = [rng.choice(xs) for _ in range(6)]
        y = [rng.choice(xs) for _ in range(6)]
        for u in xs:
            assert R.scale(x, u) == scale_reference(R, x, u)
            assert R.axpy(y, u, x) == axpy_reference(R, y, u, x)


def test_warm_example_1_7_makes_no_residue_inversions(monkeypatch):
    # every pivot unit of the n = 3 example lies in Z_p, so a warm
    # report-all inverts none of them through the residue field
    spec = load_corpus("example_1_7")
    problems.run(spec, problems.ANALYSES)
    calls = []
    gf_inv = WittContext.gf_inv

    def counted(self, a):
        calls.append(a)
        return gf_inv(self, a)

    monkeypatch.setattr(WittContext, "gf_inv", counted)
    report = problems.run(load_corpus("example_1_7"), problems.ANALYSES)
    assert report["problem"] == "example_1_7"
    assert len(calls) == 0


@pytest.mark.parametrize("p, n, N", contexts())
def test_dot_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(19 * p + n + N)
    xs = entries(ctx, rng)
    zero = R.zero
    for length in (0, 1, 3, 7):
        for _ in range(6):
            row = [rng.choice(xs) for _ in range(length)]
            col = [rng.choice(xs) for _ in range(length)]
            # disjoint supports: every pair has a zero factor
            disjoint = [zero if k % 2 else x for k, x in enumerate(col)]
            masked = [zero if k % 2 == 0 else x for k, x in enumerate(row)]
            for a, b in ((row, col), (masked, disjoint),
                         (row, [zero] * length)):
                assert R.dot(a, b) == dot_reference(R, a, b)


def test_dot_without_products_reduces_nothing(monkeypatch):
    ctx = make_context(3, 3, 12)
    R = ring(ctx)
    u, g = ctx.from_int(5), (0, 1, 0)
    want = ctx.mul(u, g)
    calls = []
    reduce_product = WittContext.reduce_product

    def counted(self, prod):
        calls.append(prod)
        return reduce_product(self, prod)

    monkeypatch.setattr(WittContext, "reduce_product", counted)
    zero = R.zero
    assert R.dot([], []) == zero
    assert R.dot([u, zero, g], [zero, g, zero]) == zero
    assert R.dot([zero] * 4, [g] * 4) == zero
    assert calls == []
    assert R.dot([u, zero], [g, g]) == want
    assert len(calls) == 1


@pytest.mark.parametrize("p, n, N", contexts())
def test_vec_mat_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(23 * p + n + N)
    zp, gen = in_zp(ctx, rng), general(ctx, rng, 8)
    zero = R.zero
    # rows and matrices all in Z_p, all general, and mixed; sparse too
    for pool in (zp, gen, zp + gen, [zero] * 8 + zp + gen):
        for m, c in ((1, 1), (3, 4), (6, 2)):
            for _ in range(4):
                row = [rng.choice(pool) for _ in range(m)]
                b = [[rng.choice(pool) for _ in range(c)] for _ in range(m)]
                assert R.vec_mat(row, b) == vec_mat_reference(R, row, b)
                a = [row, [zero] * m, [rng.choice(pool) for _ in range(m)]]
                assert R.mul_mat(a, b) == \
                    [vec_mat_reference(R, x, b) for x in a]


def test_vec_mat_reduces_each_entry_once(monkeypatch):
    ctx = make_context(3, 3, 12)
    R = ring(ctx)
    u, g = ctx.from_int(5), (0, 1, 0)
    zero = R.zero
    b = [[g, zero, u], [u, zero, g], [g, g, zero]]
    # column 1 meets only zeros of the row; columns 0 and 2 sum two
    # products each
    want = [ctx.add(ctx.mul(u, g), ctx.mul(g, u)), zero,
            ctx.add(ctx.mul(u, u), ctx.mul(g, g))]
    calls = []
    reduce_product = WittContext.reduce_product

    def counted(self, prod):
        calls.append(prod)
        return reduce_product(self, prod)

    monkeypatch.setattr(WittContext, "reduce_product", counted)
    assert R.vec_mat([u, g, zero], b) == want
    assert len(calls) == 2
    del calls[:]
    assert R.vec_mat([zero] * 3, b) == [zero] * 3
    assert R.vec_mat([], []) == []
    assert calls == []
