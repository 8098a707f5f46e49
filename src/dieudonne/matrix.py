"""Dense matrices over one raw-coefficient ring, the one entry format of
every matrix-level object.

Matrices are lists of rows.  ``ring(ctx)`` decides the entry format of
W(F_q) mod p^N once, by ``ctx.n`` alone: a raw coefficient is a Python
int in [0, p^N) when n = 1, and a power-basis coefficient tuple, combined
through the raw ops of ``WittContext``, when n > 1.  Lattice columns,
semilinear-map rows, solve coordinates, inverses, the polynomials of
``isocrystal`` and the series coefficients all hold that format, and
it is the only one.  ``raw_col`` builds it from ints and coefficient
lists (through ``WittContext.scalar``) and reduces raw entries of a
higher precision; ``raw_mat`` is one ``raw_col`` per row.  They run once
per datum, at the boundary: where outside data enters
(``FIsocrystal.from_int_matrix``, ``invert_matrix_exact``, the problem
fields in ``problems``, ``core.hodge_splitting``,
``strata.group_symplectic`` and ``group_custom``,
``deformation.DeformationBasis`` and the Teichmuller lifts of a point)
and where raw data computed at a boosted precision is published at the
context precision (``isocrystal._slope_split_at``,
``signs.dual_lattice``, ``deformation.trivialize_at_point``).  A move
to a higher precision needs no pass: a raw int below p^N stays below
every larger power.  Every other function, the lattice and map
constructors included, takes raw entries of its context and never
reduces them again; ``tests/test_imports.py`` lists the functions that
convert.

The matrix kernels (``_Ring.mul_mat``, ``add_mat``, ``sub_mat``,
``identity``, ``nilpotent_inverse``) are written once over each ring's
entry ops: ``zero``, ``one``, ``add``, ``sub``, ``neg``, ``vec_mat`` and
``is_zero``.  ``vec_mat(row, b)`` is the matrix product kernel: the row
combination sum_i row[i] b[i] over the nonzero row[i] only, summed
unreduced and reduced once per output entry (a product of lattice
coordinates, kernel vectors or Hom-block bases is mostly zeros).
``mul_mat`` is one ``vec_mat`` per row of its left operand, and a
matrix-vector product A v is ``vec_mat(v, A^T)`` (``SemilinearMap``
caches A^T).  The Witt rings add the ops the series, the echelon kernel
of ``lattices`` and its callers are written against: the two other
product kernels, ``dot`` (a row times a column, for a single inner
product: traces, ``charpoly``, the isotropy check of ``strata``) and
``poly_mul`` (the product of two low-degree-first polynomials, for the
polynomial layer of ``isocrystal``: at n = 1 its products are summed
unreduced and each coefficient is reduced once, at n > 1 it is one
``axpy`` per nonzero coefficient of its left operand), ``mul``,
``power``, ``of_int``, ``axpy``, ``scale``, ``outer`` (the flattened
t f^T of two vectors, the one way an End(M) vector is built from r x r
data), ``pivot`` (the first entry of least valuation), ``val``, balanced
``divide_p``, unit ``inverse``, ``frob`` (``frob_mat`` on a matrix),
``rem``, ``vanishes`` and the zero test ``x == R.zero``; the
residue-field algebra of ``lattices`` runs on these ops too, on raw
entries in [0, p).  When n > 1, a tuple whose
coordinates above g^0 vanish lies in Z_p, and integer module data make
most entries of that kind.  ``_TupleRing.scale`` and ``axpy`` then run
one integer pass per coordinate (``scale`` by ``one`` is a copy in
both rings), ``vec_mat`` multiplies by such a row entry as one integer,
and the ``WittContext`` ops under ``mul``, ``inverse`` and ``frob`` take
the same exact shortcut: sigma fixes Z_p, and the inverse mod p^N is
unique, so every result equals the general path's.  A zero entry
costs no arithmetic in either ring: most End(M) entries are zero, and
``scale`` (so ``outer`` and pivot normalisation) and ``axpy`` hand it
back as it is; at n = 1 ``vanishes`` at k >= N is a zero test, and at
n > 1 ``rem``, ``vanishes`` and ``raw_col``, like the ``WittContext``
sums, negation, integer multiples and ``divide_p_power``, skip zero
tuples and build the tuples they do make from one list pass.
``_EntryRing`` makes entries that carry their own arithmetic
(``TruncatedSeries``) their own raw form, and its ``vec_mat`` skips zero
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


class _Ring:
    """The matrix kernels, on raw entries of one ring."""

    def raw_mat(self, rows):
        return [self.raw_col(row) for row in rows]

    def mul_mat(self, a, b):
        vec_mat = self.vec_mat
        return [vec_mat(row, b) for row in a]

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

    def vec_mat(self, row, b):
        out = [self.zero] * (len(b[0]) if b else 0)
        for x, brow in zip(row, b):
            if x.is_zero():
                continue
            for j, y in enumerate(brow):
                if not y.is_zero():
                    out[j] = out[j] + x * y
        return out


class _WittRing(_Ring):
    """W(F_q) mod p^N on raw coefficients."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = ctx.p
        self.N = ctx.N
        self.pN = ctx.pN

    def is_zero(self, x):
        return x == self.zero

    def frob_mat(self, m, e):
        """sigma^e on every entry of a matrix; m itself when e = 0."""
        if not e:
            return m
        frob = self.frob
        return [[frob(x, e) for x in row] for row in m]

    def outer(self, t, f):
        """The outer product t f^T, flattened row-major: entry (k, l) is
        t[k] f[l].  Every End(M) vector built from r x r data is one."""
        scale = self.scale
        return [x for tk in t for x in scale(f, tk)]

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
        """Raw entries from ints (raw entries of any precision among them,
        reduced modulo this p^N) or coefficient arrays."""
        ctx, pN = self.ctx, self.pN
        return [x % pN if type(x) is int else ctx.scalar(x)[0] for x in col]

    def of_int(self, m):
        return m % self.pN

    def add(self, a, b):
        return (a + b) % self.pN

    def sub(self, a, b):
        return (a - b) % self.pN

    def neg(self, a):
        return -a % self.pN

    def mul(self, a, b):
        return a * b % self.pN

    def power(self, a, e):
        return pow(a, e, self.pN)

    def dot(self, row, col):
        return sum(map(mul, row, col)) % self.pN

    def poly_mul(self, a, b):
        # the products are summed unreduced and each coefficient is
        # reduced once
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                j = i
                for y in b:
                    out[j] += x * y
                    j += 1
        pN = self.pN
        return [s % pN for s in out]

    def vec_mat(self, row, b):
        acc = None
        for x, brow in zip(row, b):
            if x:
                acc = ([x * y for y in brow] if acc is None
                       else [s + x * y for s, y in zip(acc, brow)])
        if acc is None:
            return [0] * (len(b[0]) if b else 0)
        pN = self.pN
        return [s % pN for s in acc]

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
        if k >= self.N:
            return not any(col)
        pk = self.p ** k
        return not any(x % pk for x in col)

    def axpy(self, y, q, x):
        """y - q x."""
        pN = self.pN
        return [(a - q * b) % pN if b else a for a, b in zip(y, x)]

    def scale(self, x, u):
        if u == 1:
            return list(x)
        pN = self.pN
        return [a * u % pN if a else a for a in x]


class _TupleRing(_WittRing):
    """n > 1: a raw coefficient is the power-basis tuple of a scalar."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.zero = ctx.from_int(0)
        self.one = ctx.from_int(1)
        self.tail = ctx._tail
        self.add, self.sub, self.neg = ctx.add, ctx.sub, ctx.neg
        self.mul, self.power, self.val = ctx.mul, ctx.power, ctx.valuation
        self.divide_p, self.inverse = ctx.divide_p_power, ctx.unit_inverse
        self.frob, self.of_int = ctx.frobenius, ctx.from_int

    def raw_col(self, col):
        # raw tuples are never negative, so only a wider precision's
        # coefficients need reducing
        ctx, pN, zero = self.ctx, self.pN, self.zero
        return [(x if x == zero or max(x) < pN
                 else tuple([c % pN for c in x]))
                if type(x) is tuple else ctx.scalar(x) for x in col]

    def dot(self, row, col):
        # the products are summed as unreduced polynomials and reduced
        # once; a row and column with no nonzero product allocate nothing
        zero = self.zero
        acc = None
        for a, x in zip(row, col):
            if a == zero or x == zero:
                continue
            if acc is None:
                acc = [0] * (2 * self.ctx.n - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, xj in enumerate(x):
                        acc[i + j] += ai * xj
        return zero if acc is None else self.ctx.reduce_product(acc)

    def poly_mul(self, a, b):
        # one scale-and-add per nonzero coefficient of a: a body with one
        # dot per output coefficient is slower on these short operands
        if not a or not b:
            return []
        zero, lb = self.zero, len(b)
        out = [zero] * (len(a) + lb - 1)
        for i, x in enumerate(a):
            if x != zero:
                out[i:i + lb] = self.axpy(out[i:i + lb], self.neg(x), b)
        return out

    def vec_mat(self, row, b):
        # one unreduced polynomial per output entry, reduced once; a Z_p
        # entry of the row is one integer
        zero, tail = self.zero, self.tail
        size = 2 * self.ctx.n - 1
        accs = [None] * (len(b[0]) if b else 0)
        for x, brow in zip(row, b):
            if x == zero:
                continue
            terms = (((0, x[0]),) if x[1:] == tail
                     else [(i, c) for i, c in enumerate(x) if c])
            for j, y in enumerate(brow):
                if y == zero:
                    continue
                acc = accs[j]
                if acc is None:
                    acc = accs[j] = [0] * size
                for i, c in terms:
                    for k, yk in enumerate(y):
                        if yk:
                            acc[i + k] += c * yk
        reduce = self.ctx.reduce_product
        return [zero if acc is None else reduce(acc) for acc in accs]

    def rem(self, a, m):
        return a if a == self.zero else tuple([x % m for x in a])

    def vanishes(self, col, k):
        pk, zero = self.p ** k, self.zero
        for x in col:
            if x != zero:
                for c in x:
                    if c % pk:
                        return False
        return True

    def axpy(self, y, q, x):
        zero = self.zero
        if q[1:] == self.tail:
            pN, q0 = self.pN, q[0]
            return [a if b == zero else
                    tuple([(c - q0 * d) % pN for c, d in zip(a, b)])
                    for a, b in zip(y, x)]
        mul_, sub_ = self.mul, self.sub
        return [a if b == zero else sub_(a, mul_(q, b)) for a, b in zip(y, x)]

    def scale(self, x, u):
        zero = self.zero
        if u == self.one:
            return list(x)
        if u[1:] == self.tail:
            pN, u0 = self.pN, u[0]
            return [a if a == zero else tuple([c * u0 % pN for c in a])
                    for a in x]
        mul_ = self.mul
        return [a if a == zero else mul_(a, u) for a in x]


_RINGS = {}


def ring(ctx):
    """The raw-coefficient ring of a Witt context, chosen by ctx.n; built
    once per context object and kept in a table keyed by it, so that no
    reference cycle runs through a context."""
    try:
        return _RINGS[ctx]
    except KeyError:
        R = _RINGS[ctx] = _IntRing(ctx) if ctx.n == 1 else _TupleRing(ctx)
        return R
