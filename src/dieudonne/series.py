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

A monomial x^e is stored as one packed integer key: with b the bit
length of the bound, exponent e_i sits in bits [b i, b (i + 1)) and the
total degree above all of them, at bit b nvars.  No field of a monomial
of degree at most the bound overflows, so the key of a product is the sum
of the keys, the key of x -> x^p is p times the key, and a product or a
lift stays below the bound exactly when its key is below the key
``(bound + 1) << (b nvars)``.  Degrees are thus read once, when an
exponent tuple is packed.  ``terms`` maps keys to nonzero coefficients
and is never changed after construction, so results share it freely;
``coeffs``, ``coefficient`` and ``repr`` speak exponent tuples.
"""

from __future__ import annotations

from .witt import format_entry


class TruncatedSeries:
    __slots__ = ("R", "nvars", "dmax", "terms", "valid", "_bits", "_limit")

    def __init__(self, R, nvars, dmax, coeffs=None, valid=None):
        self.R = R
        self.nvars = nvars
        self.dmax = dmax
        self._bits = max(dmax.bit_length(), 1)
        self._limit = (dmax + 1) << (self._bits * nvars)
        self.terms = {}
        if coeffs:
            zero = R.zero
            for expo, c in coeffs.items():
                if sum(expo) <= dmax and c != zero:
                    self.terms[self._pack(expo)] = c
        self.valid = dmax if valid is None else min(valid, dmax)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(R, nvars, dmax):
        return TruncatedSeries(R, nvars, dmax)

    @staticmethod
    def constant(R, nvars, dmax, value):
        s = TruncatedSeries(R, nvars, dmax)
        if value != R.zero:
            s.terms[0] = value
        return s

    @staticmethod
    def variable(R, nvars, dmax, i, power=1):
        s = TruncatedSeries(R, nvars, dmax)
        if power <= dmax:
            s.terms[s._unit(i, power)] = R.one
        return s

    # -- monomial keys -----------------------------------------------------------

    def _pack(self, expo):
        """The key of an exponent tuple of degree at most the bound."""
        bits = self._bits
        key = sum(expo) << (bits * self.nvars)
        for i, a in enumerate(expo):
            key |= a << (bits * i)
        return key

    def _unpack(self, key):
        bits = self._bits
        mask = (1 << bits) - 1
        return tuple((key >> (bits * i)) & mask for i in range(self.nvars))

    def _unit(self, i, power):
        """The key of x_i^power."""
        return (power << (self._bits * i)) | (power << (self._bits
                                                        * self.nvars))

    @property
    def coeffs(self):
        """The coefficients keyed by exponent tuples (a fresh dict)."""
        return {self._unpack(k): c for k, c in self.terms.items()}

    # -- ring operations ---------------------------------------------------------

    def _like(self, terms, valid):
        """A series of the same shape; ``terms`` holds no zero and is
        not changed afterwards."""
        out = TruncatedSeries.__new__(TruncatedSeries)
        out.R, out.nvars, out.dmax = self.R, self.nvars, self.dmax
        out._bits, out._limit = self._bits, self._limit
        out.terms = terms
        out.valid = min(valid, self.dmax)
        return out

    def _drop_zeros(self, terms, valid):
        zero = self.R.zero
        return self._like({k: c for k, c in terms.items() if c != zero},
                          valid)

    def __add__(self, other):
        valid = min(self.valid, other.valid)
        if not other.terms:
            return self._like(self.terms, valid)
        if not self.terms:
            return self._like(other.terms, valid)
        add = self.R.add
        terms = dict(self.terms)
        for k, c in other.terms.items():
            prev = terms.get(k)
            terms[k] = c if prev is None else add(prev, c)
        return self._drop_zeros(terms, valid)

    def __sub__(self, other):
        valid = min(self.valid, other.valid)
        if not other.terms:
            return self._like(self.terms, valid)
        sub, neg = self.R.sub, self.R.neg
        terms = dict(self.terms)
        for k, c in other.terms.items():
            prev = terms.get(k)
            terms[k] = neg(c) if prev is None else sub(prev, c)
        return self._drop_zeros(terms, valid)

    def __neg__(self):
        neg = self.R.neg
        return self._like({k: neg(c) for k, c in self.terms.items()},
                          self.valid)

    def __mul__(self, other):
        """The product with a series, or with a raw entry of the ring."""
        R = self.R
        if not isinstance(other, TruncatedSeries):
            if other == R.one or not self.terms:
                return self._like(self.terms, self.valid)
            mul = R.mul
            return self._drop_zeros({k: mul(c, other)
                                     for k, c in self.terms.items()},
                                    self.valid)
        valid = min(self.valid, other.valid)
        if not self.terms or not other.terms:
            return self._like({}, valid)
        add, mul = R.add, R.mul
        limit = self._limit
        inner = sorted(other.terms.items())
        out = {}
        for k1, c1 in self.terms.items():
            room = limit - k1
            for k2, c2 in inner:
                if k2 >= room:
                    break
                k = k1 + k2
                prod = mul(c1, c2)
                prev = out.get(k)
                out[k] = prod if prev is None else add(prev, prod)
        return self._drop_zeros(out, valid)

    def times_variable(self, i, power=1):
        """The product with x_i^power: every key shifts by that of
        x_i^power, and the window is kept."""
        if not self.terms:
            return self
        unit = self._unit(i, power)
        room = self._limit - unit
        return self._like({k + unit: c for k, c in self.terms.items()
                           if k < room}, self.valid)

    def plus_combination(self, row, series):
        """self + sum_l row[l] series[l] over the nonzero raw entries
        row[l], summed in one pass; each series[l] with row[l] nonzero
        joins the window, as it does in the sum of the products."""
        R = self.R
        zero, add, mul = R.zero, R.add, R.mul
        valid = self.valid
        live = []
        for x, s in zip(row, series):
            if x != zero:
                valid = min(valid, s.valid)
                if s.terms:
                    live.append((x, s.terms))
        if not live:
            return self._like(self.terms, valid)
        terms = dict(self.terms)
        for x, st in live:
            for k, c in st.items():
                prod = mul(c, x)
                prev = terms.get(k)
                terms[k] = prod if prev is None else add(prev, prod)
        return self._drop_zeros(terms, valid)

    def scale_p(self, k):
        """Multiply by p^k (k >= 0)."""
        return self * self.R.of_int(self.R.p ** k)

    def is_zero(self):
        return not self.terms

    def is_zero_through(self, degree):
        """No nonzero coefficient of total degree at most ``degree``."""
        top = (degree + 1) << (self._bits * self.nvars)
        return all(k >= top for k in self.terms)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):  # pragma: no cover
        raise TypeError("series are not hashable")

    # -- structure maps ---------------------------------------------------------

    def frobenius_lift(self):
        """sigma on coefficients, x_i -> x_i^p; monomials escaping the
        truncation are dropped and validity is scaled accordingly.
        sigma is an automorphism, so no coefficient becomes zero."""
        p, frob, limit = self.R.p, self.R.frob, self._limit
        return self._like({p * k: frob(c, 1) for k, c in self.terms.items()
                           if p * k < limit},
                          min(self.dmax, p * self.valid + p - 1))

    def partial(self, i):
        """Formal partial derivative."""
        valid = max(self.valid - 1, 0)
        if not self.terms:
            return self._like(self.terms, valid)
        R = self.R
        shift = self._bits * i
        mask = (1 << self._bits) - 1
        unit = self._unit(i, 1)
        out = {}
        for k, c in self.terms.items():
            a = (k >> shift) & mask
            if a:
                out[k - unit] = R.mul(c, R.of_int(a))
        return self._drop_zeros(out, valid)

    @staticmethod
    def power_table(R, point, dmax):
        """The powers z_i^0, ..., z_i^dmax of each raw coordinate of a
        point: what ``evaluate`` reads, built once for every series
        evaluated there."""
        table = []
        for z in point:
            col = [R.one]
            for _ in range(dmax):
                col.append(R.mul(col[-1], z))
            table.append(col)
        return table

    def evaluate(self, powers):
        """Value at the point whose ``power_table`` is given, up to this
        series' degree bound at least (uses every stored coefficient)."""
        R = self.R
        add, mul = R.add, R.mul
        acc = R.zero
        for k, c in self.terms.items():
            term = c
            for i, a in enumerate(self._unpack(k)):
                if a:
                    term = mul(term, powers[i][a])
            acc = add(acc, term)
        return acc

    def constant_term(self):
        return self.terms.get(0, self.R.zero)

    def coefficient(self, expo):
        expo = tuple(expo)
        if (len(expo) != self.nvars or min(expo, default=0) < 0
                or sum(expo) > self.dmax):
            return self.R.zero
        return self.terms.get(self._pack(expo), self.R.zero)

    def __repr__(self):
        if not self.terms:
            return "0"
        coeffs = self.coeffs
        terms = []
        for e in sorted(coeffs, key=lambda t: (sum(t), t)):
            mono = "*".join(f"x{i}^{a}" if a > 1 else f"x{i}"
                            for i, a in enumerate(e) if a)
            terms.append(format_entry(coeffs[e])
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
