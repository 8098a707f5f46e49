"""Dense matrices over one raw-coefficient ring, the one entry format of
every matrix-level object.

Matrices are lists of rows.  ``ring(ctx)`` decides the entry format of
W(F_q) mod p^N once, by ``ctx.n`` alone: a raw coefficient is a Python
int in [0, p^N) when n = 1, and a power-basis coefficient tuple, combined
through the raw ops of ``WittContext``, when n > 1.  Lattice columns,
semilinear-map rows, solve coordinates and inverses all hold that format;
``WittScalar`` is only the parsing and display boundary (``raw_col`` and
``wrap_col`` cross it) and the coefficient type of the series in
``series`` and ``deformation``; the polynomials of ``isocrystal`` hold
raw coefficients too.  ``raw_col`` also re-reduces raw entries of another
precision, so moving exact data between precision contexts is one
``ring(target).raw_mat`` pass.

The matrix kernels (``_Ring.mul_mat``, ``add_mat``, ``sub_mat``,
``identity``, ``nilpotent_inverse``) are written once over each ring's
entry ops: ``zero``, ``one``, ``add``, ``sub``, ``neg``, ``dot`` (a row
times a column) and ``is_zero``.  The Witt rings add the column-level ops
the echelon kernel of ``lattices`` and its callers are written against:
``axpy``, ``scale``, ``pivot`` (the first entry of least valuation),
``val``, balanced ``divide_p``, unit ``inverse``, ``frob``, ``rem``,
``vanishes`` and the zero test ``x == R.zero``; the residue-field
algebra of ``lattices`` runs on these ops too, on raw entries in [0, p).
``_EntryRing`` makes entries that carry their own arithmetic
(``TruncatedSeries``) their own raw form, and its ``dot`` skips zero
entries, so a skipped entry never narrows a series' validity window.

These helpers sit below the layer modules, beside ``series``, because
the benchmark's tracer (``bench/tracer.py``) wraps every public function
of the layer modules in a timing span, and a rank-8 report-all makes
about 1500 matrix products.  Functions defined here are never
wrapped, even when a layer imports them by name, so their time lands in
the self time of their callers.
"""

from __future__ import annotations

from operator import add, mul, neg, sub

from .errors import PrecisionExhausted
from .witt import WittScalar


class _Ring:
    """The matrix kernels, on raw entries of one ring."""

    def raw_mat(self, rows):
        return [self.raw_col(row) for row in rows]

    def wrap_mat(self, rows):
        return [self.wrap_col(row) for row in rows]

    def mul_mat(self, a, b):
        dot = self.dot
        cols = list(zip(*b))
        return [[dot(row, col) for col in cols] for row in a]

    def add_mat(self, a, b):
        f = self.add
        return [list(map(f, r1, r2)) for r1, r2 in zip(a, b)]

    def sub_mat(self, a, b):
        f = self.sub
        return [list(map(f, r1, r2)) for r1, r2 in zip(a, b)]

    def identity(self, r):
        zero, one = self.zero, self.one
        return [[one if i == j else zero for j in range(r)]
                for i in range(r)]

    def nilpotent_inverse(self, n_mat, terms):
        """(1 + N)^{-1} by the finite geometric series 1 - N + N^2 - ...,
        summed through (-N)^terms or up to the first power that vanishes;
        exact when N^(terms + 1) = 0."""
        neg_mat = [list(map(self.neg, row)) for row in n_mat]
        out = self.identity(len(n_mat))
        term = neg_mat
        is_zero = self.is_zero
        for _ in range(terms):
            if all(is_zero(x) for row in term for x in row):
                break
            out = self.add_mat(out, term)
            term = self.mul_mat(term, neg_mat)
        return out


class _EntryRing(_Ring):
    """Entries carrying their own arithmetic: each is its own raw form."""

    add = staticmethod(add)
    sub = staticmethod(sub)
    neg = staticmethod(neg)

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one

    @staticmethod
    def is_zero(x):
        return x.is_zero()

    def dot(self, row, col):
        acc = self.zero
        for x, y in zip(row, col):
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x * y
        return acc


class _WittRing(_Ring):
    """W(F_q) mod p^N on raw coefficients."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = ctx.p
        self.N = ctx.N
        self.pN = ctx.pN

    def is_zero(self, x):
        return x == self.zero

    def pivot(self, col, rows, neff):
        """(v, i) for the first of the given rows whose entry has the least
        valuation v < neff; None when every such entry vanishes at neff."""
        zero, val = self.zero, self.val
        best = None
        bv = neff
        for i in rows:
            x = col[i]
            if x == zero:
                continue
            v = val(x)
            if v < bv:
                if v == 0:
                    return 0, i
                bv, best = v, i
        return None if best is None else (bv, best)


class _IntRing(_WittRing):
    """n = 1: a raw coefficient is an int in [0, p^N)."""

    zero = 0
    one = 1

    def raw_col(self, col):
        """Raw entries from ints, raw entries of any precision (reduced
        modulo this p^N), this context's scalars or coefficient arrays."""
        ctx, pN = self.ctx, self.pN
        return [x % pN if type(x) is int
                else x.c[0] if type(x) is WittScalar and x.ctx is ctx
                else ctx.scalar(x).c[0] for x in col]

    def wrap_col(self, col):
        ctx = self.ctx
        return [WittScalar(ctx, (v,)) for v in col]

    def of_int(self, m):
        return m % self.pN

    def add(self, a, b):
        return (a + b) % self.pN

    def sub(self, a, b):
        return (a - b) % self.pN

    def neg(self, a):
        return -a % self.pN

    def dot(self, row, col):
        return sum(map(mul, row, col)) % self.pN

    def val(self, a):
        if a == 0:
            return self.N
        p = self.p
        v = 0
        while a % p == 0:
            a //= p
            v += 1
        return v

    def divide_p(self, a, k):
        """Division by p^k through the balanced representative."""
        if k == 0:
            return a
        pk = self.p ** k
        if a % pk:
            raise PrecisionExhausted(
                f"scalar not divisible by p^{k} at precision {self.N}")
        if a > self.pN // 2:
            a -= self.pN
        return a // pk % self.pN

    def inverse(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("scalar is not a unit")
        return pow(a, -1, self.pN)

    @staticmethod
    def frob(a, e):
        return a

    @staticmethod
    def rem(a, m):
        """The representative of a modulo the integer m."""
        return a % m

    def vanishes(self, col, k):
        """Every entry is 0 mod p^k."""
        pk = self.p ** k
        return not any(x % pk for x in col)

    def axpy(self, y, q, x):
        """y - q x."""
        pN = self.pN
        return [(a - q * b) % pN for a, b in zip(y, x)]

    def scale(self, x, u):
        pN = self.pN
        return [a * u % pN for a in x]


class _TupleRing(_WittRing):
    """n > 1: a raw coefficient is the power-basis tuple of a scalar."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.zero = ctx.from_int(0)
        self.one = ctx.from_int(1)
        self.add, self.sub, self.neg = ctx.add, ctx.sub, ctx.neg
        self.mul, self.val = ctx.mul, ctx.valuation
        self.divide_p, self.inverse = ctx.divide_p_power, ctx.unit_inverse
        self.frob, self.of_int = ctx.frobenius, ctx.from_int

    def raw_col(self, col):
        # raw tuples are never negative, so only a wider precision's
        # coefficients need reducing
        ctx, pN = self.ctx, self.pN
        return [(x if max(x) < pN else tuple(c % pN for c in x))
                if type(x) is tuple
                else x.c if type(x) is WittScalar and x.ctx is ctx
                else ctx.scalar(x).c for x in col]

    def wrap_col(self, col):
        ctx = self.ctx
        return [WittScalar(ctx, v) for v in col]

    def dot(self, row, col):
        # the products are summed as unreduced polynomials and reduced once
        n, zero = self.ctx.n, self.zero
        acc = [0] * (2 * n - 1)
        for a, x in zip(row, col):
            if a == zero or x == zero:
                continue
            for i, ai in enumerate(a):
                if ai:
                    for j, xj in enumerate(x):
                        acc[i + j] += ai * xj
        return self.ctx.reduce_product(acc)

    @staticmethod
    def rem(a, m):
        return tuple(x % m for x in a)

    def vanishes(self, col, k):
        pk = self.p ** k
        return not any(c % pk for x in col for c in x)

    def axpy(self, y, q, x):
        mul_, sub_, zero = self.mul, self.sub, self.zero
        return [a if b == zero else sub_(a, mul_(q, b)) for a, b in zip(y, x)]

    def scale(self, x, u):
        mul_ = self.mul
        return [mul_(a, u) for a in x]


def ring(ctx):
    """The raw-coefficient ring of a Witt context, chosen by ctx.n."""
    return _IntRing(ctx) if ctx.n == 1 else _TupleRing(ctx)
