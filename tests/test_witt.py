"""Unit and property tests for the truncated Witt ring arithmetic."""

import itertools
import random

import pytest
import sympy

from dieudonne.witt import WittContext, is_prime, make_context
from dieudonne.errors import PrecisionExhausted

# Scalars are the context's raw coefficient tuples, combined with its raw
# ops; ``residue`` reads one mod p.


def rand_scalar(ctx, rng):
    return ctx.scalar([rng.randrange(ctx.pN) for _ in range(ctx.n)])


def residue(ctx, a):
    return tuple(x % ctx.p for x in a)


def test_context_zp():
    ctx = make_context(2, 1, 10)
    assert ctx.pN == 1024
    # sigma is the identity on Z_p
    a = ctx.scalar(7)
    assert ctx.frobenius(a) == a


def test_context_z3():
    ctx = make_context(3, 1, 8)
    a = ctx.scalar(1234)
    assert ctx.frobenius(a) == a


def test_context_rejects_bad_input():
    with pytest.raises(ValueError):
        make_context(4, 1, 8)
    with pytest.raises(ValueError):
        make_context(2, 2, 1)


def test_is_prime_matches_sympy():
    rng = random.Random(64)
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 9746347772161]
    # strong pseudoprimes to every prime base up to 7, 13 and 23
    strong = [3215031751, 3474749660383, 3825123056546413051]
    large = [2 ** 61 - 1, 2 ** 64 - 59, 2 ** 64 - 1,
             4294967291 * 4294967279]
    cases = list(range(-3, 3000)) + carmichael + strong + large
    cases += [rng.randrange(2 ** bits) for bits in (16, 32, 48, 64)
              for _ in range(250)]
    for m in cases:
        assert is_prime(m) == sympy.isprime(m), m
    with pytest.raises(ValueError, match=r"2\^64"):
        is_prime(2 ** 64)
    with pytest.raises(ValueError, match=r"2\^64"):
        make_context(2 ** 64 + 13, 1, 8)


def test_defining_polynomial_f4():
    # smallest irreducible quadratic over F_2 is x^2 + x + 1
    ctx = make_context(2, 2, 8)
    assert ctx.f == (1, 1, 1)
    # sigma(g) reduces to g^2 = g + 1 mod 2
    s = ctx.frobenius(ctx.scalar([0, 1]))
    assert residue(ctx, s) == (1, 1)
    # f(sigma(g)) = 0 at full precision
    val = ctx.add(ctx.add(ctx.mul(s, s), s), ctx.scalar(1))
    assert ctx.is_zero(val)


def test_defining_polynomial_f8():
    ctx = make_context(2, 3, 12)
    assert ctx.f == (1, 1, 0, 1)  # x^3 + x + 1
    g = ctx.scalar([0, 1])
    s = ctx.frobenius(g)
    assert ctx.is_zero(ctx.add(ctx.add(ctx.power(s, 3), s), ctx.scalar(1)))
    assert residue(ctx, s) == residue(ctx, ctx.mul(g, g))


def test_frobenius_is_root_substitution():
    ctx = make_context(2, 3, 10)
    g = ctx.scalar([0, 1])
    a = ctx.add(g, ctx.mul(g, g))
    b = ctx.frobenius(a)
    # sigma is the substitution g -> sigma(g)
    s = ctx.frobenius(g)
    assert b == ctx.add(s, ctx.mul(s, s))


def test_frobenius_order_n():
    for (p, n) in [(2, 2), (2, 3), (3, 2), (5, 3)]:
        ctx = make_context(p, n, 8)
        rng = random.Random(11)
        for _ in range(10):
            a = rand_scalar(ctx, rng)
            assert ctx.frobenius(a, n) == a
            assert ctx.frobenius(a, 0) == a


def test_frobenius_is_ring_homomorphism():
    ctx = make_context(3, 3, 9)
    rng = random.Random(7)
    for _ in range(25):
        a = rand_scalar(ctx, rng)
        b = rand_scalar(ctx, rng)
        fa, fb = ctx.frobenius(a), ctx.frobenius(b)
        assert ctx.frobenius(ctx.add(a, b)) == ctx.add(fa, fb)
        assert ctx.frobenius(ctx.mul(a, b)) == ctx.mul(fa, fb)


def test_frobenius_reduces_to_pth_power():
    # mod p, sigma^e is x -> x^(p^(e mod n)) on every residue of F_q
    for (p, n) in [(5, 1), (2, 3), (3, 2), (2, 4)]:
        ctx = make_context(p, n, 6)
        one = (1,) + (0,) * (n - 1)
        for c in itertools.product(range(p), repeat=n):
            for e in range(-1, 2 * n + 1):
                power = one
                for _ in range(p ** (e % n)):
                    power = ctx.gf_mul(power, c)
                assert residue(ctx, ctx.frobenius(c, e)) == power, \
                    (p, n, c, e)


def test_teichmuller_trivial():
    ctx = make_context(5, 2, 8)
    assert ctx.is_zero(ctx.teichmuller((0, 0)))
    assert ctx.teichmuller((1, 0)) == ctx.scalar(1)


def test_teichmuller_z3():
    ctx = make_context(3, 1, 6)
    t = ctx.teichmuller((2,))
    assert residue(ctx, t) == (2,)
    assert ctx.power(t, 3) == t


def test_teichmuller_multiplicative():
    ctx = make_context(3, 2, 8)
    rng = random.Random(13)
    for _ in range(20):
        c1 = tuple(rng.randrange(3) for _ in range(2))
        c2 = tuple(rng.randrange(3) for _ in range(2))
        t1, t2 = ctx.teichmuller(c1), ctx.teichmuller(c2)
        t12 = ctx.teichmuller(ctx.gf_mul(c1, c2))
        assert ctx.mul(t1, t2) == t12


def test_valuation():
    ctx = make_context(2, 2, 10)
    p = 2
    u = ctx.scalar(3)
    assert ctx.valuation(ctx.mul(ctx.scalar(p * p), u)) == 2
    assert ctx.valuation(ctx.scalar(0)) == 10
    # g is a unit since f(0) = 1 is a unit
    assert ctx.valuation(ctx.scalar([0, 1])) == 0


def test_valuation_additive():
    ctx = make_context(5, 2, 10)
    rng = random.Random(3)
    for _ in range(25):
        a = rand_scalar(ctx, rng)
        b = rand_scalar(ctx, rng)
        va, vb = ctx.valuation(a), ctx.valuation(b)
        if va + vb < ctx.N:
            assert ctx.valuation(ctx.mul(a, b)) == va + vb


def test_unit_inverse():
    ctx = make_context(2, 3, 16)
    rng = random.Random(5)
    for _ in range(20):
        a = rand_scalar(ctx, rng)
        if ctx.valuation(a) != 0:
            continue
        assert ctx.mul(a, ctx.unit_inverse(a)) == ctx.scalar(1)


def test_divide_p_power():
    ctx = make_context(3, 1, 8)
    a = ctx.scalar(27)
    assert ctx.divide_p_power(a, 3) == ctx.scalar(1)
    with pytest.raises(PrecisionExhausted):
        ctx.divide_p_power(ctx.scalar(3), 2)


def test_scalar_builds_reduced_raw_tuples():
    ctx = make_context(3, 2, 4)
    assert ctx.scalar(-1) == (80, 0)
    assert ctx.scalar([82, -1]) == (1, 80)
    assert ctx.scalar([5]) == (5, 0)
    assert ctx.scalar((7, 8)) == (7, 8)
    with pytest.raises(ValueError, match="too many"):
        ctx.scalar([1, 2, 3])


def test_residue_field_ops():
    ctx = make_context(2, 3, 4)
    q = 8
    # brute-force check of inverses in F_8
    for k in range(1, q):
        a = (k & 1, (k >> 1) & 1, (k >> 2) & 1)
        inv = ctx.gf_inv(a)
        assert ctx.gf_mul(a, inv) == (1, 0, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_gf_inv_matches_brute_force(p):
    # the inverse is the one element of F_q whose product with a is 1;
    # products are the residues of the Witt ring product, which reduces
    # by the lifted modulus, not by the residue modulus gf_mul reads
    ctx = make_context(p, 3, 4)
    field = list(itertools.product(range(p), repeat=3))
    one = (1, 0, 0)
    for a in field:
        if a == (0, 0, 0):
            with pytest.raises(ZeroDivisionError):
                ctx.gf_inv(a)
            continue
        assert [b for b in field
                if residue(ctx, ctx.mul(a, b)) == one] == [ctx.gf_inv(a)]
        for b in field:
            assert ctx.gf_mul(a, b) == residue(ctx, ctx.mul(a, b))


def test_determinism():
    c1 = make_context(3, 4, 10)
    c2 = make_context(3, 4, 10)
    assert c1 is c2
    fresh = WittContext(3, 4, 10)
    assert fresh.f == c1.f
    g = fresh.scalar([0, 1])
    assert fresh.frobenius(g) == c1.frobenius(g)
