"""Multivariate power series over the Witt ring, truncated at a total
degree bound.

Coefficients are raw entries of one ``matrix.ring(ctx)`` (an int in
[0, p^N) when n = 1, the coefficient tuple when n > 1) and combine
through that ring's entry ops; a series is also multiplied by a raw
entry.  Monomials above the bound are dropped silently.  Each series
carries a validity degree: coefficients of total degree up to ``valid``
are trusted, higher ones are unknown.  The Frobenius lift acts by sigma
on coefficients and x_i -> x_i^p on variables, which multiplies validity
by p (capped at the bound).
"""

from __future__ import annotations

from .witt import format_entry


class TruncatedSeries:
    __slots__ = ("R", "nvars", "dmax", "coeffs", "valid")

    def __init__(self, R, nvars, dmax, coeffs=None, valid=None):
        self.R = R
        self.nvars = nvars
        self.dmax = dmax
        self.coeffs = {}
        if coeffs:
            zero = R.zero
            for expo, c in coeffs.items():
                if sum(expo) <= dmax and c != zero:
                    self.coeffs[tuple(expo)] = c
        self.valid = dmax if valid is None else min(valid, dmax)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(R, nvars, dmax):
        return TruncatedSeries(R, nvars, dmax)

    @staticmethod
    def constant(R, nvars, dmax, value):
        s = TruncatedSeries(R, nvars, dmax)
        if value != R.zero:
            s.coeffs[(0,) * nvars] = value
        return s

    @staticmethod
    def variable(R, nvars, dmax, i, power=1):
        s = TruncatedSeries(R, nvars, dmax)
        expo = [0] * nvars
        expo[i] = power
        if power <= dmax:
            s.coeffs[tuple(expo)] = R.one
        return s

    # -- ring operations ---------------------------------------------------------

    def _like(self, coeffs, valid):
        out = TruncatedSeries(self.R, self.nvars, self.dmax)
        zero = self.R.zero
        out.coeffs = {e: c for e, c in coeffs.items() if c != zero}
        out.valid = min(valid, self.dmax)
        return out

    def __add__(self, other):
        add = self.R.add
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = add(coeffs[e], c) if e in coeffs else c
        return self._like(coeffs, min(self.valid, other.valid))

    def __sub__(self, other):
        sub, neg = self.R.sub, self.R.neg
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = sub(coeffs[e], c) if e in coeffs else neg(c)
        return self._like(coeffs, min(self.valid, other.valid))

    def __neg__(self):
        neg = self.R.neg
        return self._like({e: neg(c) for e, c in self.coeffs.items()},
                          self.valid)

    def __mul__(self, other):
        """The product with a series, or with a raw entry of the ring."""
        add, mul = self.R.add, self.R.mul
        if not isinstance(other, TruncatedSeries):
            return self._like({e: mul(v, other)
                               for e, v in self.coeffs.items()}, self.valid)
        dmax = self.dmax
        out = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > dmax:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = mul(c1, c2)
                out[e] = add(out[e], prod) if e in out else prod
        return self._like(out, min(self.valid, other.valid))

    def scale_p(self, k):
        """Multiply by p^k (k >= 0)."""
        return self * self.R.of_int(self.R.p ** k)

    def is_zero(self):
        return not self.coeffs

    def is_zero_through(self, degree):
        zero = self.R.zero
        return all(c == zero for e, c in self.coeffs.items()
                   if sum(e) <= degree)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):  # pragma: no cover
        raise TypeError("series are not hashable")

    # -- structure maps ---------------------------------------------------------

    def frobenius_lift(self):
        """sigma on coefficients, x_i -> x_i^p; monomials escaping the
        truncation are dropped and validity is scaled accordingly."""
        p, frob = self.R.p, self.R.frob
        out = {}
        for e, c in self.coeffs.items():
            pe = tuple(p * a for a in e)
            if sum(pe) <= self.dmax:
                out[pe] = frob(c, 1)
        return self._like(out, min(self.dmax, p * self.valid + p - 1))

    def partial(self, i):
        """Formal partial derivative."""
        R = self.R
        out = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            out[tuple(de)] = R.mul(c, R.of_int(e[i]))
        return self._like(out, max(self.valid - 1, 0))

    def evaluate(self, point):
        """Value at a tuple of raw entries (uses every stored
        coefficient)."""
        R = self.R
        add, mul = R.add, R.mul
        acc = R.zero
        powers = [[R.one] for _ in range(self.nvars)]
        for i, z in enumerate(point):
            col = powers[i]
            for _ in range(self.dmax):
                col.append(mul(col[-1], z))
        for e, c in self.coeffs.items():
            term = c
            for i, a in enumerate(e):
                if a:
                    term = mul(term, powers[i][a])
            acc = add(acc, term)
        return acc

    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, self.R.zero)

    def coefficient(self, expo):
        return self.coeffs.get(tuple(expo), self.R.zero)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, key=lambda t: (sum(t), t)):
            mono = "*".join(f"x{i}^{a}" if a > 1 else f"x{i}"
                            for i, a in enumerate(e) if a)
            terms.append(format_entry(self.coeffs[e])
                         + ("*" + mono if mono else ""))
        return " + ".join(terms)


def linear_matrix(R, vectors, r, dmax):
    """sum_i v_i x_i as an r x r matrix of series in len(vectors)
    variables, for raw r x r matrices v_i flattened row-major."""
    n = len(vectors)
    zero = TruncatedSeries.zero(R, n, dmax)
    rows = [[zero] * r for _ in range(r)]
    for i, v in enumerate(vectors):
        xi = TruncatedSeries.variable(R, n, dmax, i)
        for k, x in enumerate(v):
            if x != R.zero:
                a, b = divmod(k, r)
                rows[a][b] = rows[a][b] + xi * x
    return rows
