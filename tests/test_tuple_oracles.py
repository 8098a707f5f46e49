"""The zero-skipping raw-tuple ops, checked against the bodies they
replaced.

At n > 1 most entries of the End(M) columns are the zero tuple.
``WittContext.add``, ``sub``, ``neg``, ``mul_int`` and
``divide_p_power`` hand a zero operand (or the other operand) back
unchanged, and ``_TupleRing.scale``, ``vanishes``, ``raw_col``, ``rem``
and ``axpy`` do no arithmetic on a zero entry.  ``WittContext.teichmuller``
takes Newton steps on x^q - x instead of iterating x -> x^q.  The
``*_reference`` functions below are the former bodies, kept verbatim apart
from taking the context or ring as an argument and calling each other
instead of the library ops, so that no rewritten op reaches the oracle;
``teichmuller_reference`` is the former fixed-point iteration, checked
over every residue of each field.  Inputs are seeded columns that mix
zero, Z_p and general tuples; ``raw_col`` also meets tuples of a wider
precision, ints and coefficient lists.
"""

import itertools
import random

import pytest

from dieudonne.errors import PrecisionExhausted
from dieudonne.matrix import ring
from dieudonne.witt import WittContext, make_context

from test_witt_oracles import general, in_zp, mul_reference

RINGS = [(2, 2), (3, 2), (2, 3), (3, 3), (5, 3)]
PRECISIONS = [2, 5, 12, 48]


# ---------------------------------------------------------------------------
# the former bodies


def add_reference(self, a, b):
    pN = self.pN
    return tuple((x + y) % pN for x, y in zip(a, b))


def sub_reference(self, a, b):
    pN = self.pN
    return tuple((x - y) % pN for x, y in zip(a, b))


def neg_reference(self, a):
    pN = self.pN
    return tuple((-x) % pN for x in a)


def mul_int_reference(self, a, m):
    pN = self.pN
    return tuple((x * m) % pN for x in a)


def divide_p_power_reference(self, a, k):
    if k == 0:
        return a
    pk = self.p ** k
    half = self.pN // 2
    out = []
    for x in a:
        if x % pk:
            raise PrecisionExhausted(
                f"scalar not divisible by p^{k} at precision {self.N}")
        if x > half:
            x -= self.pN
        out.append((x // pk) % self.pN)
    return tuple(out)


def power_reference(self, a, e):
    acc = self._one
    base = a
    while e:
        if e & 1:
            acc = mul_reference(self, acc, base)
        base = mul_reference(self, base, base)
        e >>= 1
    return acc


def teichmuller_reference(self, c):
    """Multiplicative lift of a residue-field element given as a
    coefficient tuple mod p; iterates x -> x^(p^n) until stable."""
    x = tuple(v % self.p for v in c)
    q = self.p ** self.n
    for _ in range(self.N + 1):
        y = power_reference(self, x, q)
        if y == x:
            break
        x = y
    return x


def raw_col_reference(R, col):
    # raw tuples are never negative, so only a wider precision's
    # coefficients need reducing
    ctx, pN = R.ctx, R.pN
    return [(x if max(x) < pN else tuple(c % pN for c in x))
            if type(x) is tuple else ctx.scalar(x) for x in col]


def rem_reference(a, m):
    return tuple(x % m for x in a)


def vanishes_reference(R, col, k):
    pk = R.p ** k
    return not any(c % pk for x in col for c in x)


def axpy_reference(R, y, q, x):
    zero = R.zero
    if q[1:] == R.tail:
        pN, q0 = R.pN, q[0]
        return [a if b == zero else
                tuple((c - q0 * d) % pN for c, d in zip(a, b))
                for a, b in zip(y, x)]
    ctx = R.ctx
    return [a if b == zero else
            sub_reference(ctx, a, mul_reference(ctx, q, b))
            for a, b in zip(y, x)]


def scale_reference(R, x, u):
    if u == R.one:
        return list(x)
    ctx = R.ctx
    if u[1:] == R.tail:
        u0 = u[0]
        return [mul_int_reference(ctx, a, u0) for a in x]
    return [mul_reference(ctx, a, u) for a in x]


# ---------------------------------------------------------------------------
# seeded inputs


def pool(ctx, rng):
    """Zero tuples (a third of the pool), Z_p tuples and general ones
    (more Z_p tuples when n = 1)."""
    zp = in_zp(ctx, rng) + in_zp(ctx, rng)
    gen = general(ctx, rng, 8) if ctx.n > 1 else in_zp(ctx, rng)[2:]
    return [ctx.from_int(0)] * 7 + zp[:6] + gen


def columns(ctx, rng):
    """The pool, and six columns drawn from it plus an all-zero one."""
    xs = pool(ctx, rng)
    cols = [[rng.choice(xs) for _ in range(7)] for _ in range(6)]
    return xs, cols + [[ctx.from_int(0)] * 7]


def contexts(rings=RINGS):
    for (p, n), N in itertools.product(rings, PRECISIONS):
        yield pytest.param(p, n, N, id=f"p{p}-n{n}-N{N}")


# ---------------------------------------------------------------------------
# the checks


@pytest.mark.parametrize("p, n, N",
                         contexts([(2, 1), (5, 1)] + RINGS))
def test_context_ops_match_reference(p, n, N):
    ctx = make_context(p, n, N)
    rng = random.Random(29 * p + n + N)
    xs = pool(ctx, random.Random(31 * p + n + N))
    zero = ctx.from_int(0)
    ints = [0, 1, -1, p, ctx.pN - 1, ctx.pN + 3, -p ** (N + 2),
            rng.randrange(ctx.pN)]
    for a, b in itertools.product(xs, repeat=2):
        assert ctx.add(a, b) == add_reference(ctx, a, b)
        assert ctx.sub(a, b) == sub_reference(ctx, a, b)
    for a in xs:
        assert ctx.neg(a) == neg_reference(ctx, a)
        for m in ints:
            assert ctx.mul_int(a, m) == mul_int_reference(ctx, a, m)
        for k in range(N + 1):
            try:
                want = divide_p_power_reference(ctx, a, k)
            except PrecisionExhausted:
                with pytest.raises(PrecisionExhausted):
                    ctx.divide_p_power(a, k)
                continue
            assert ctx.divide_p_power(a, k) == want
    for a in xs:
        for e in (0, 1, 2, p, p ** n, 2 * p ** n - 1):
            assert ctx.power(a, e) == power_reference(ctx, a, e)
    # a zero operand, or the other operand, comes back as the same object
    a = xs[-1]
    assert ctx.add(a, zero) is a and ctx.add(zero, a) is a
    assert ctx.sub(a, zero) is a
    assert ctx.neg(zero) is zero and ctx.mul_int(zero, 5) is zero
    assert ctx.divide_p_power(zero, 1) is zero


@pytest.mark.parametrize("p, n, N", contexts())
def test_ring_ops_match_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(37 * p + n + N)
    xs, cols = columns(ctx, rng)
    for x in cols:
        for k in range(N + 1):
            assert R.vanishes(x, k) == vanishes_reference(R, x, k)
        for a in x:
            for m in (1, p, p ** (N // 2), ctx.pN):
                assert R.rem(a, m) == rem_reference(a, m)
        y = rng.choice(cols)
        for u in xs:
            got = R.scale(x, u)
            assert got == scale_reference(R, x, u)
            # a fresh list: the caller may write to it
            assert got is not x
            assert R.axpy(y, u, x) == axpy_reference(R, y, u, x)
        t = [rng.choice(xs) for _ in range(3)]
        assert R.outer(t, x) == \
            [e for tk in t for e in scale_reference(R, x, tk)]


@pytest.mark.parametrize("p, n, N", contexts())
def test_raw_col_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    wide = make_context(p, n, N + 7)
    R = ring(ctx)
    rng = random.Random(41 * p + n + N)
    xs = pool(ctx, rng)
    wides = pool(wide, rng)
    ints = [0, 1, -1, p ** N, -ctx.pN - 2, rng.randrange(wide.pN)]
    for _ in range(6):
        col = ([rng.choice(xs) for _ in range(4)]
               + [rng.choice(wides) for _ in range(4)]
               + [list(rng.choice(xs)), rng.choice(ints),
                  [rng.randrange(-ctx.pN, ctx.pN)] * n])
        rng.shuffle(col)
        assert R.raw_col(col) == raw_col_reference(R, col)
    # a zero tuple of a wider precision is the zero tuple
    assert R.raw_col([wide.from_int(0)]) == [R.zero]


@pytest.mark.parametrize("p, n, N",
                         contexts([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2),
                                   (2, 3), (3, 3)]))
def test_teichmuller_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    for c in itertools.product(range(p), repeat=n):
        assert ctx.teichmuller(c) == teichmuller_reference(ctx, c)


def test_zero_column_makes_no_context_arithmetic(monkeypatch):
    # a context of its own, so its ring binds the counted ops
    ctx = WittContext(3, 3, 12)
    calls = []
    for name in ("add", "sub", "neg", "mul", "mul_int", "reduce_product",
                 "divide_p_power", "unit_inverse", "frobenius", "power",
                 "from_int"):
        def counted(self, *args, _name=name, _op=getattr(WittContext, name)):
            calls.append(_name)
            return _op(self, *args)
        monkeypatch.setattr(WittContext, name, counted)
    R = ring(ctx)
    zero = R.zero
    xs = pool(ctx, random.Random(43))
    del calls[:]
    col = [ctx._zero, zero, (0, 0, 0)]
    for u in xs:
        assert R.scale(col, u) == [zero] * 3
        assert R.axpy(xs[:3], u, col) == xs[:3]
    assert R.vanishes(col, ctx.N)
    assert calls == []
    # neg is the context's op: it hands each zero back, building nothing
    assert all(R.neg(z) is z for z in col)
    assert calls == ["neg"] * 3
