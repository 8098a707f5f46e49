"""Exact arithmetic in Z_q = W(F_{p^n}) truncated modulo p^N.

The coefficient ring is represented as Z_p[g]/(f) at precision p^N, where f
is the lift of the lexicographically smallest monic irreducible polynomial
of degree n over F_p (for n = 1 this degenerates to f = x, g = 0, giving
plain Z/p^N).  The Frobenius automorphism sigma is pinned down once at
context creation by Hensel-lifting the root of f that reduces to g^p.

Scalars are coefficient tuples in the power basis 1, g, ..., g^{n-1}, each
coordinate reduced to [0, p^N).  All operations are pure; a context is
immutable and safely shareable.

A tuple whose coordinates above g^0 are all zero lies in Z_p, and the
integer data of a problem (lattice columns, the matrix of F) make most
entries of that kind.  ``mul``, ``unit_inverse`` and ``frobenius`` take
an exact shortcut for such an operand: multiplication by it is one
integer product per coordinate, its inverse is the integer inverse mod
p^N (inverses mod p^N are unique), and sigma fixes it.  The shortcut is
chosen from the operand alone and returns the same tuple as the general
path.  ``add``, ``sub``, ``neg``, ``mul_int`` and ``divide_p_power`` hand
a zero operand, or the other operand, back unchanged, so a zero costs no
arithmetic.  A Teichmuller lift takes ceil(log2 N) Newton steps.
"""

from __future__ import annotations

from .errors import PrecisionExhausted


# Miller-Rabin with the first twelve prime bases decides primality exactly
# for every integer below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 2 ** 64


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin test; defined for m < 2^64."""
    if m >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below 2^64, got {m}")
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, low degree first)

def _poly_mul_mod(a, b, f, p):
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by monic f
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for k in range(n):
                prod[d - n + k] = (prod[d - n + k] - c * f[k]) % p
    out = prod[:n]
    while len(out) < n:
        out.append(0)
    return out


def _poly_pow_x(exp_p, times, f, p):
    """x^(p^times) mod f over F_p by repeated Frobenius-powering."""
    n = len(f) - 1
    if n == 1:
        cur = [(-f[0]) % p]
    else:
        cur = [0] * n
        cur[1] = 1
    for _ in range(times):
        acc = [1] + [0] * (n - 1)
        base = cur
        e = exp_p
        while e:
            if e & 1:
                acc = _poly_mul_mod(acc, base, f, p)
            base = _poly_mul_mod(base, base, f, p)
            e >>= 1
        cur = acc
    return cur


def _poly_gcd_deg(a, b, p):
    """Degree of gcd of two F_p polynomials (lists, low first)."""
    a = a[:]
    b = b[:]

    def deg(u):
        d = len(u) - 1
        while d >= 0 and u[d] % p == 0:
            d -= 1
        return d

    while True:
        db = deg(b)
        if db < 0:
            return deg(a)
        da = deg(a)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], p - 2, p)
        c = (a[da] * inv) % p
        for k in range(db + 1):
            a[da - db + k] = (a[da - db + k] - c * b[k]) % p
        # loop continues shrinking a


def _is_irreducible(f, p):
    """f monic of degree n over F_p, low-first coefficient list of length n+1."""
    n = len(f) - 1
    if n == 1:
        return True
    # x^(p^n) == x mod f
    xq = _poly_pow_x(p, n, f, p)
    x1 = [0] * n
    x1[1] = 1
    if xq != x1:
        return False
    # gcd(x^(p^(n/ell)) - x, f) trivial for each prime ell | n
    m = n
    ell = 2
    primes = set()
    while ell * ell <= m:
        while m % ell == 0:
            primes.add(ell)
            m //= ell
        ell += 1
    if m > 1:
        primes.add(m)
    for ell in primes:
        xe = _poly_pow_x(p, n // ell, f, p)
        diff = [(xe[k] - x1[k]) % p for k in range(n)]
        if _poly_gcd_deg(diff + [0], f, p) != 0:
            return False
    return True


def minimal_irreducible(p: int, n: int):
    """Lift of the lexicographically smallest monic irreducible degree-n
    polynomial over F_p, as a low-first list of n+1 integers in [0, p).

    Candidates x^n + c_{n-1}x^{n-1} + ... + c_0 are ordered by the digit
    string (c_{n-1}, ..., c_0) read as a base-p number.
    """
    if n == 1:
        return [0, 1]
    for k in range(p ** n):
        digits = []
        m = k
        for _ in range(n):
            digits.append(m % p)
            m //= p
        f = digits + [1]
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


class WittContext:
    """The ring W(F_{p^n}) mod p^N together with its Frobenius.

    Attributes:
        p, n, N:   prime, residue degree, precision exponent.
        f:         defining polynomial, low-first tuple of n+1 ints.
        fbar:      f reduced mod p, the modulus of the residue field.
        frob_image: sigma(g) as a WittScalar.
    """

    __slots__ = ("p", "n", "N", "pN", "f", "fbar", "frob_image", "_red",
                 "_frob_mats", "_zero", "_one", "_tail", "_ring")

    def __init__(self, p: int, n: int, N: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if n < 1:
            raise ValueError("residue degree must be >= 1")
        if N < 2:
            raise ValueError("precision exponent must be >= 2")
        self.p = p
        self.n = n
        self.N = N
        self.pN = p ** N
        self.f = tuple(minimal_irreducible(p, n))
        # the residue modulus, shared by every F_q product
        self.fbar = tuple(c % p for c in self.f)
        # reduction table: g^(n+k) for k = 0..n-2 in the power basis
        red = []
        if n > 1:
            gn = [(-c) % self.pN for c in self.f[:n]]
            red.append(tuple(gn))
            for _ in range(n - 2):
                prev = red[-1]
                shifted = [0] + list(prev[: n - 1])
                top = prev[n - 1]
                nxt = [(shifted[i] - top * self.f[i]) % self.pN
                       for i in range(n)]
                red.append(tuple(nxt))
        self._red = tuple(red)
        self._zero = (0,) * n
        # the coordinates above g^0 of every element of Z_p
        self._tail = (0,) * (n - 1)
        one = [0] * n
        one[0] = 1
        self._one = tuple(one)
        self._frob_mats = None
        self._ring = None
        if n == 1:
            self.frob_image = WittScalar(self, self._zero)
            self._frob_mats = (((1,),),)
        else:
            root = self._lift_frobenius_root()
            self.frob_image = WittScalar(self, root)
            self._build_frob_mats(root)

    # -- raw tuple arithmetic ------------------------------------------------

    def add(self, a, b):
        zero = self._zero
        if b == zero:
            return a
        if a == zero:
            return b
        pN = self.pN
        return tuple([(x + y) % pN for x, y in zip(a, b)])

    def sub(self, a, b):
        if b == self._zero:
            return a
        if a == self._zero:
            return self.neg(b)
        pN = self.pN
        return tuple([(x - y) % pN for x, y in zip(a, b)])

    def neg(self, a):
        if a == self._zero:
            return a
        pN = self.pN
        return tuple([-x % pN for x in a])

    def mul(self, a, b):
        """a b; when either factor lies in Z_p, the other is multiplied
        coordinatewise by that integer, which is the same product."""
        pN = self.pN
        n = self.n
        if n == 1:
            return ((a[0] * b[0]) % pN,)
        tail = self._tail
        if a[1:] == tail:
            return self.mul_int(b, a[0])
        if b[1:] == tail:
            return self.mul_int(a, b[0])
        prod = [0] * (2 * n - 1)
        for i in range(n):
            ai = a[i]
            if ai:
                for j in range(n):
                    prod[i + j] += ai * b[j]
        return self.reduce_product(prod)

    def reduce_product(self, prod):
        """The scalar of an unreduced polynomial product: prod holds the
        2n - 1 integer coefficients of g^0 .. g^(2n-2)."""
        n, pN = self.n, self.pN
        out = [c % pN for c in prod[:n]]
        for k in range(n - 1):
            c = prod[n + k] % pN
            if c:
                row = self._red[k]
                for i in range(n):
                    out[i] = (out[i] + c * row[i]) % pN
        return tuple(out)

    def mul_int(self, a, m):
        if a == self._zero:
            return a
        pN = self.pN
        return tuple([x * m % pN for x in a])

    def from_int(self, m):
        out = [0] * self.n
        out[0] = m % self.pN
        return tuple(out)

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def valuation(self, a):
        """Largest v <= N with a = 0 mod p^v; returns N when a = 0 mod p^N."""
        best = self.N
        p = self.p
        for x in a:
            if x == 0:
                continue
            v = 0
            while x % p == 0:
                x //= p
                v += 1
            if v < best:
                best = v
                if best == 0:
                    return 0
        return best

    def unit_inverse(self, a):
        """Inverse of a unit scalar, by residue inversion plus Hensel
        lifting; a unit of Z_p is inverted as an integer mod p^N, which is
        exact because the inverse mod p^N is unique."""
        if a[1:] == self._tail:
            if a[0] % self.p == 0:
                raise ZeroDivisionError("scalar is not a unit")
            return (pow(a[0], -1, self.pN),) + self._tail
        if self.valuation(a) != 0:
            raise ZeroDivisionError("scalar is not a unit")
        p = self.p
        b = self.gf_inv(tuple(x % p for x in a))
        prec = 1
        while prec < self.N:
            # b <- b (2 - a b), doubling the precision each round
            ab = self.mul(a, b)
            two_minus = self.sub(self.from_int(2), ab)
            b = self.mul(b, two_minus)
            prec *= 2
        return b

    def divide_p_power(self, a, k):
        """Division by p^k using the balanced representative, so that
        small-magnitude values of either sign divide exactly; raises
        PrecisionExhausted when a is not divisible at the working
        precision.  (The quotient of a general value is canonical only
        modulo p^{N-k}.)"""
        if k == 0 or a == self._zero:
            return a
        pk = self.p ** k
        for x in a:
            if x % pk:
                raise PrecisionExhausted(
                    f"scalar not divisible by p^{k} at precision {self.N}")
        pN = self.pN
        half = pN // 2
        return tuple([(x - pN if x > half else x) // pk % pN for x in a])

    # -- Frobenius -----------------------------------------------------------

    def _lift_frobenius_root(self):
        """Hensel-lift the root of f that reduces to g^p, to precision p^N."""
        p, n = self.p, self.n
        t = tuple(_poly_pow_x(p, 1, self.fbar, p))
        fprime = tuple(((i + 1) * self.f[i + 1]) % self.pN for i in range(n))
        prec = 1
        while prec < self.N:
            ft = self._eval_poly(self.f, t)
            fpt = self._eval_poly(fprime + (0,), t)
            inv = self.unit_inverse(fpt)
            t = self.sub(t, self.mul(ft, inv))
            prec *= 2
        if not self.is_zero(self._eval_poly(self.f, t)):
            raise PrecisionExhausted(
                "the Hensel-lifted Frobenius root is not a root of the "
                f"defining polynomial mod p^{self.N}")
        return t

    def _eval_poly(self, coeffs, x):
        acc = self._zero
        for c in reversed(coeffs):
            acc = self.mul(acc, x)
            acc = self.add(acc, self.from_int(c) if isinstance(c, int) else c)
        return acc

    def _build_frob_mats(self, root):
        n, pN = self.n, self.pN
        # columns of the e = 1 matrix are the power-basis coordinates of
        # sigma(g)^j
        powers = [self._one]
        for _ in range(n - 1):
            powers.append(self.mul(powers[-1], root))
        m1 = tuple(tuple(powers[j][i] for j in range(n)) for i in range(n))
        mats = [tuple(tuple(1 if i == j else 0 for j in range(n))
                      for i in range(n)), m1]
        for _ in range(n - 2):
            prev = mats[-1]
            nxt = tuple(tuple(sum(m1[i][k] * prev[k][j] for k in range(n)) % pN
                              for j in range(n)) for i in range(n))
            mats.append(nxt)
        self._frob_mats = tuple(mats)

    def frobenius(self, a, e=1):
        """sigma^e applied to a raw coefficient tuple (e taken mod n);
        sigma fixes Z_p, so an element of Z_p is returned unchanged."""
        e %= self.n
        if e == 0 or a[1:] == self._tail:
            return tuple(a)
        m = self._frob_mats[e]
        n, pN = self.n, self.pN
        return tuple(sum(m[i][j] * a[j] for j in range(n)) % pN
                     for i in range(n))

    def teichmuller(self, c):
        """Multiplicative lift of a residue-field element given as a
        coefficient tuple mod p: the root of x^q - x (q = p^n) above it,
        by the Newton step x <- x - (x^q - x) (q - 1)^{-1}.  The derivative
        of x^q - x is q - 1 at every root of unity of order dividing
        q - 1, so each round doubles the precision and ceil(log2 N) rounds
        reach p^N; 0 stays 0."""
        x = tuple([v % self.p for v in c])
        q = self.p ** self.n
        inv = pow(q - 1, -1, self.pN)
        prec = 1
        while prec < self.N:
            x = self.sub(x, self.mul_int(self.sub(self.power(x, q), x), inv))
            prec *= 2
        return x

    def power(self, a, e):
        if self.n == 1:
            return (pow(a[0], e, self.pN),)
        acc = self._one
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    # -- residue field F_q = F_{p^n} ------------------------------------------

    def residue(self, a):
        p = self.p
        return tuple(x % p for x in a)

    def gf_add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def gf_sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def gf_mul(self, a, b):
        p = self.p
        n = self.n
        if n == 1:
            return ((a[0] * b[0]) % p,)
        return tuple(_poly_mul_mod(list(a), list(b), self.fbar, p))

    def gf_inv(self, a):
        q = self.p ** self.n
        if all(x % self.p == 0 for x in a):
            raise ZeroDivisionError("residue element is zero")
        acc = tuple(x % self.p for x in self._one)
        base = tuple(x % self.p for x in a)
        e = q - 2
        while e:
            if e & 1:
                acc = self.gf_mul(acc, base)
            base = self.gf_mul(base, base)
            e >>= 1
        return acc

    def gf_is_zero(self, a):
        return all(x % self.p == 0 for x in a)

    # -- misc -----------------------------------------------------------------

    def with_precision(self, N2: int) -> "WittContext":
        """Same ring rebuilt at another precision.  Only exact (integer)
        data may be transported between the two contexts."""
        if N2 == self.N:
            return self
        return make_context(self.p, self.n, N2)

    def scalar(self, value) -> "WittScalar":
        """Build a scalar from an int or a coefficient iterable."""
        if isinstance(value, WittScalar):
            if value.ctx is not self:
                raise ValueError("scalar from a different context")
            return value
        if isinstance(value, int):
            return WittScalar(self, self.from_int(value))
        coeffs = list(value)
        if len(coeffs) > self.n:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.n - len(coeffs))
        return WittScalar(self, tuple(c % self.pN for c in coeffs))

    @property
    def zero(self) -> "WittScalar":
        return WittScalar(self, self._zero)

    @property
    def one(self) -> "WittScalar":
        return WittScalar(self, self._one)

    @property
    def generator(self) -> "WittScalar":
        g = [0] * self.n
        if self.n > 1:
            g[1] = 1
        return WittScalar(self, tuple(g))

    def __eq__(self, other):
        return (isinstance(other, WittContext)
                and (self.p, self.n, self.N) == (other.p, other.n, other.N))

    def __hash__(self):
        return hash((self.p, self.n, self.N))


class WittScalar:
    """An element of the truncated Witt ring, always reduced mod p^N."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: WittContext, coeffs):
        self.ctx = ctx
        self.c = coeffs

    def __add__(self, other):
        return WittScalar(self.ctx, self.ctx.add(self.c, _raw(self, other)))

    def __sub__(self, other):
        return WittScalar(self.ctx, self.ctx.sub(self.c, _raw(self, other)))

    def __mul__(self, other):
        if isinstance(other, int):
            return WittScalar(self.ctx, self.ctx.mul_int(self.c, other))
        return WittScalar(self.ctx, self.ctx.mul(self.c, other.c))

    __rmul__ = __mul__

    def __neg__(self):
        return WittScalar(self.ctx, self.ctx.neg(self.c))

    def __pow__(self, e):
        return WittScalar(self.ctx, self.ctx.power(self.c, e))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == self.ctx.from_int(other)
        return isinstance(other, WittScalar) and self.c == other.c

    def inverse(self) -> "WittScalar":
        return WittScalar(self.ctx, self.ctx.unit_inverse(self.c))

    def valuation(self) -> int:
        return self.ctx.valuation(self.c)

    def is_zero(self) -> bool:
        return self.c == self.ctx._zero

    def frobenius(self, e: int = 1) -> "WittScalar":
        return WittScalar(self.ctx, self.ctx.frobenius(self.c, e))

    def divide_p(self, k: int) -> "WittScalar":
        return WittScalar(self.ctx, self.ctx.divide_p_power(self.c, k))

    def residue(self):
        return self.ctx.residue(self.c)

    def __repr__(self):
        return format_entry(self.c)


def format_entry(x) -> str:
    """The display form of a scalar from its raw coefficient (an int) or
    coefficient tuple: w(c) when n = 1, w[c0, c1, ...] otherwise."""
    if type(x) is int:
        return f"w({x})"
    return f"w({x[0]})" if len(x) == 1 else f"w{list(x)}"


def _raw(s: WittScalar, other):
    if isinstance(other, WittScalar):
        return other.c
    if isinstance(other, int):
        return s.ctx.from_int(other)
    raise TypeError(f"cannot coerce {other!r}")


_CONTEXT_CACHE: dict = {}


def make_context(p: int, n: int, N: int) -> WittContext:
    """Deterministic context for W(F_{p^n}) mod p^N.

    The defining polynomial is the lift of the lexicographically smallest
    monic irreducible degree-n polynomial over F_p, and sigma(g) is produced
    by Hensel lifting, so two calls with equal arguments agree exactly.
    Contexts are cached (they are immutable).
    """
    key = (p, n, N)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = WittContext(p, n, N)
        _CONTEXT_CACHE[key] = ctx
    return ctx


def frobenius(a: WittScalar, e: int = 1) -> WittScalar:
    return a.frobenius(e)


def teichmuller(ctx: WittContext, c) -> WittScalar:
    """Teichmuller lift of a residue-field element (int or coefficient
    iterable mod p): the unique t with t^(p^n) = t and t = c mod p."""
    if isinstance(c, int):
        coeffs = [c % ctx.p] + [0] * (ctx.n - 1)
    else:
        coeffs = [v % ctx.p for v in c]
        coeffs += [0] * (ctx.n - len(coeffs))
    return WittScalar(ctx, ctx.teichmuller(tuple(coeffs)))


def valuation(a: WittScalar) -> int:
    return a.valuation()
