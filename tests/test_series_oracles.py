"""The series layer on raw coefficients, checked against the scalar
bodies it replaced.

``TruncatedSeries`` now holds raw entries of ``matrix.ring(ctx)`` and
``divided_power`` and ``correction_factor`` take and return raw entries.
``SeriesReference`` is the former series class and the ``*_reference``
functions are the former bodies (with the ``_nabla`` they called),
rewritten on the raw ``WittContext`` ops; they hold the context's
coefficient tuples.  Every result must have equal coefficients, read as
those tuples, and equal validity windows, and every failure the same
exception type and first message line.

Inputs are seeded, at p in {2, 3, 5} with n = 1 and p in {2, 3} with
n = 3: coefficients of every valuation (zero included), monomials above
the degree bound, and validity windows below it.
"""

import random

import pytest

from dieudonne.core import TangentSpace, largest_sub_dieudonne
from dieudonne.deformation import (ConnectionForm, _factorial_valuation,
                                   correction_factor, divided_power,
                                   select_deformation_basis,
                                   solve_connection)
from dieudonne.errors import (DieudonneError, NonTermination,
                              ValidationFailed)
from dieudonne.isocrystal import end_decompose, slope_split, vec_to_mat
from dieudonne.lattices import Lattice, lattice_sum
from dieudonne.matrix import ring
from dieudonne.series import TruncatedSeries
from dieudonne.witt import format_entry, make_context

from instances import ordinary_rank2, rank6_two_slope, raw

RINGS = [(2, 1, 12), (3, 1, 10), (5, 1, 9), (2, 3, 12), (3, 3, 10)]


# ---------------------------------------------------------------------------
# the former bodies


class SeriesReference:
    __slots__ = ("ctx", "nvars", "dmax", "coeffs", "valid")

    def __init__(self, ctx, nvars, dmax, coeffs=None, valid=None):
        self.ctx = ctx
        self.nvars = nvars
        self.dmax = dmax
        self.coeffs = {}
        if coeffs:
            for expo, c in coeffs.items():
                if sum(expo) <= dmax and not ctx.is_zero(c):
                    self.coeffs[tuple(expo)] = c
        self.valid = dmax if valid is None else min(valid, dmax)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(ctx, nvars, dmax):
        return SeriesReference(ctx, nvars, dmax)

    @staticmethod
    def constant(ctx, nvars, dmax, value):
        s = SeriesReference(ctx, nvars, dmax)
        value = ctx.scalar(value)
        if not ctx.is_zero(value):
            s.coeffs[(0,) * nvars] = value
        return s

    @staticmethod
    def variable(ctx, nvars, dmax, i, power=1):
        s = SeriesReference(ctx, nvars, dmax)
        expo = [0] * nvars
        expo[i] = power
        if power <= dmax:
            s.coeffs[tuple(expo)] = ctx.scalar(1)
        return s

    # -- ring operations ---------------------------------------------------------

    def _like(self, coeffs, valid):
        out = SeriesReference(self.ctx, self.nvars, self.dmax)
        out.coeffs = {e: c for e, c in coeffs.items()
                      if not self.ctx.is_zero(c)}
        out.valid = min(valid, self.dmax)
        return out

    def __add__(self, other):
        ctx = self.ctx
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e in coeffs:
                coeffs[e] = ctx.add(coeffs[e], c)
            else:
                coeffs[e] = c
        return self._like(coeffs, min(self.valid, other.valid))

    def __sub__(self, other):
        ctx = self.ctx
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e in coeffs:
                coeffs[e] = ctx.sub(coeffs[e], c)
            else:
                coeffs[e] = ctx.neg(c)
        return self._like(coeffs, min(self.valid, other.valid))

    def __neg__(self):
        return self._like({e: self.ctx.neg(c) for e, c in self.coeffs.items()},
                          self.valid)

    def __mul__(self, other):
        ctx = self.ctx
        if not isinstance(other, SeriesReference):
            c = ctx.scalar(other)
            return self._like({e: ctx.mul(v, c)
                               for e, v in self.coeffs.items()},
                              self.valid)
        dmax = self.dmax
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                deg = sum(e1) + sum(e2)
                if deg > dmax:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = ctx.mul(c1, c2)
                if e in out:
                    out[e] = ctx.add(out[e], prod)
                else:
                    out[e] = prod
        return self._like(out, min(self.valid, other.valid))

    __rmul__ = __mul__

    def scale_p(self, k):
        """Multiply by p^k (k >= 0)."""
        m = self.ctx.p ** k
        return self._like({e: self.ctx.mul_int(c, m)
                           for e, c in self.coeffs.items()}, self.valid)

    def is_zero(self):
        return not self.coeffs

    def is_zero_through(self, degree):
        return all(self.ctx.is_zero(c) for e, c in self.coeffs.items()
                   if sum(e) <= degree)

    def __eq__(self, other):
        if not isinstance(other, SeriesReference):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):  # pragma: no cover
        raise TypeError("series are not hashable")

    # -- structure maps ---------------------------------------------------------

    def frobenius_lift(self):
        """sigma on coefficients, x_i -> x_i^p; monomials escaping the
        truncation are dropped and validity is scaled accordingly."""
        p = self.ctx.p
        out = {}
        for e, c in self.coeffs.items():
            pe = tuple(p * a for a in e)
            if sum(pe) <= self.dmax:
                out[pe] = self.ctx.frobenius(c)
        return self._like(out, min(self.dmax, p * self.valid + p - 1))

    def partial(self, i):
        """Formal partial derivative."""
        out = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            out[tuple(de)] = self.ctx.mul_int(c, e[i])
        return self._like(out, max(self.valid - 1, 0))

    def evaluate(self, point):
        """Value at a tuple of scalars (uses every stored coefficient)."""
        ctx = self.ctx
        acc = ctx.scalar(0)
        powers = [[ctx.scalar(1)] for _ in range(self.nvars)]
        for i, z in enumerate(point):
            col = powers[i]
            for _ in range(self.dmax):
                col.append(ctx.mul(col[-1], z))
        for e, c in self.coeffs.items():
            term = c
            for i, a in enumerate(e):
                if a:
                    term = ctx.mul(term, powers[i][a])
            acc = ctx.add(acc, term)
        return acc

    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, self.ctx.scalar(0))

    def coefficient(self, expo):
        return self.coeffs.get(tuple(expo), self.ctx.scalar(0))

    def support_degrees(self):
        return sorted({sum(e) for e in self.coeffs})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, key=lambda t: (sum(t), t)):
            c = self.coeffs[e]
            mono = "*".join(f"x{i}^{a}" if a > 1 else f"x{i}"
                            for i, a in enumerate(e) if a)
            terms.append(f"{format_entry(c)}{'*' + mono if mono else ''}")
        return " + ".join(terms)


def nabla_reference(conn, vec, i):
    """nabla(d/dx_i) on a vector of series: the partial derivative plus
    omega_i = sum_l w[(l, i)] * (basis element l of E) applied to it."""
    ctx = conn.crystal.ctx
    zero = ring(ctx).zero
    r = conn.crystal.rank
    out = [s.partial(i) for s in vec]
    # each entry of E e_l vec is trusted only through the window of every
    # entry of vec, zero matrix entries included
    floor = SeriesReference(ctx, conn.B.n, conn.dmax,
                            valid=min(s.valid for s in vec))
    for l, v in enumerate(conn.basis):
        w_li = conn.w[(l, i)]
        if w_li.is_zero():
            continue
        for k, row in enumerate(vec_to_mat(v, r)):
            e = floor
            for x, s in zip(row, vec):
                if x != zero:
                    e = e + s * x
            out[k] = out[k] + e * w_li
    return out


def divided_power_reference(ctx, y, j):
    """y^j / j! as an exact scalar (requires v(y) >= 1 so the valuations
    stay non-negative)."""
    if j == 0:
        return ctx.scalar(1)
    num = ctx.power(y, j)
    vfac = _factorial_valuation(j, ctx.p)
    f = 1
    for k in range(2, j + 1):
        f *= k
    unit = f // (ctx.p ** vfac)
    num = ctx.divide_p_power(num, vfac)
    return ctx.mul(num, ctx.unit_inverse(ctx.scalar(unit)))


def correction_factor_reference(crystal, conn, z):
    """Divided-power transport comparing the twisted Frobenius at the
    point z with its value at the Teichmuller point.

    g(m) = sum over multi-indices j of (prod_i nabla(d/dx_i)^{j_i})(m)
    evaluated at z, times prod_i y_i^{j_i}/j_i!, with
    y_i = sigma(z_i) - z_i^p in p W(k).  Terms die exactly: a second
    one-form application vanishes by square-zero-ness and iterated plain
    derivatives exhaust the truncation degree.
    """
    ctx = crystal.ctx
    r = crystal.rank
    n = conn.B.n
    dmax = conn.dmax
    zs = [ctx.scalar(v) for v in z]
    ys = []
    for zi in zs:
        y = ctx.sub(ctx.frobenius(zi), ctx.power(zi, ctx.p))
        if not ctx.is_zero(y) and ctx.valuation(y) < 1:
            raise ValidationFailed(
                "coordinate difference sigma(z) - z^p is not divisible "
                "by p")
        ys.append(y)

    grows = [[ctx.scalar(0)] * r for _ in range(r)]
    for col in range(r):
        base = [SeriesReference.constant(ctx, n, dmax, int(k == col))
                for k in range(r)]
        acc = [ctx.scalar(0)] * r

        def walk(i, vec, factor):
            nonlocal acc
            if ctx.is_zero(factor):
                return
            if i == n:
                val = [s.evaluate(zs) for s in vec]
                for k in range(r):
                    if not ctx.is_zero(val[k]):
                        acc[k] = ctx.add(acc[k], ctx.mul(val[k], factor))
                return
            walk(i + 1, vec, factor)
            cur = vec
            for j in range(1, dmax + 3):
                cur = nabla_reference(conn, cur, i)
                if all(s.is_zero() for s in cur):
                    break
                dp = divided_power_reference(ctx, ys[i], j)
                walk(i + 1, cur, ctx.mul(factor, dp))
            else:
                raise NonTermination(
                    "derivative tower failed to terminate within the "
                    "degree bound")

        walk(0, base, ctx.scalar(1))
        for k in range(r):
            grows[k][col] = acc[k]
    # assertions: g = 1 mod p, and 1 - g lands in E modulo p^2
    ok_unit = all(ctx.valuation(ctx.sub(grows[i][j], ctx.scalar(int(i == j))))
                  >= 1 for i in range(r) for j in range(r))
    defect = [ctx.scalar(0)] * (r * r)
    for i in range(r):
        for j in range(r):
            d = ctx.sub(ctx.scalar(int(i == j)), grows[i][j])
            defect[i * r + j] = d
    R = ring(ctx)
    p2 = R.of_int(ctx.p ** 2)
    p2end = Lattice.from_columns(
        ctx, r * r, [R.scale(col, p2) for col in R.identity(r * r)])
    e_plus_p2 = lattice_sum(conn.E, p2end)
    in_E_mod_p2 = e_plus_p2.contains_vector(raw(ctx, [defect])[0])
    return {
        "matrix": grows,
        "unit_mod_p": ok_unit,
        "defect_in_E_mod_p2": in_E_mod_p2,
        "y_valuations": [ctx.valuation(y) for y in ys],
    }


# ---------------------------------------------------------------------------
# inputs and comparison


@pytest.fixture(params=RINGS, ids=lambda c: "p%d_n%d_N%d" % c)
def setting(request):
    p, n, N = request.param
    ctx = make_context(p, n, N)
    return ctx, ring(ctx), random.Random(100 * p + 10 * n + N)


def rand_raw(R, rng):
    """A raw entry of random valuation: zero, a unit, or p^k times a
    unit."""
    ctx = R.ctx
    k = rng.choice((0, 0, 1, 2, ctx.N))
    if k >= ctx.N:
        return R.zero
    c = [rng.randrange(ctx.pN) for _ in range(ctx.n)]
    c[0] = c[0] - c[0] % ctx.p + rng.randrange(1, ctx.p)
    return R.raw_col([ctx.scalar([x * ctx.p ** k for x in c])])[0]


def random_series_pair(R, rng, nvars, dmax):
    """One series twice: raw, and with scalar coefficients.  Exponents
    reach one degree past the bound; the window is the full bound or
    below it."""
    coeffs = {}
    for _ in range(rng.randrange(6)):
        expo = [0] * nvars
        for _ in range(rng.randrange(dmax + 2)):
            expo[rng.randrange(nvars)] += 1
        coeffs[tuple(expo)] = rand_raw(R, rng)
    valid = rng.choice((None, rng.randrange(dmax + 1)))
    wrapped = {e: R.ctx.scalar(c) for e, c in coeffs.items()}
    return (TruncatedSeries(R, nvars, dmax, coeffs, valid),
            SeriesReference(R.ctx, nvars, dmax, wrapped, valid))


def wrapped(s):
    """Coefficients as the context's coefficient tuples, and the window."""
    return {e: s.R.ctx.scalar(c) for e, c in s.coeffs.items()}, s.valid


def reference(s):
    return s.coeffs, s.valid


def outcome(fn, *args):
    """The value of fn, or the type and first message line of the
    DieudonneError it raises."""
    try:
        return fn(*args)
    except DieudonneError as exc:
        return type(exc), str(exc).split("\n")[0]


def series_pairs(R, rng, count=8):
    for _ in range(count):
        nvars = rng.randrange(1, 4)
        dmax = rng.randrange(1, 7)
        yield nvars, dmax, random_series_pair(R, rng, nvars, dmax)


# ---------------------------------------------------------------------------
# the series operations


def test_constructor_and_repr_match_reference(setting):
    ctx, R, rng = setting
    for _, _, (s, ref) in series_pairs(R, rng, 12):
        assert wrapped(s) == reference(ref)
        assert repr(s) == repr(ref)
        assert s.is_zero() == ref.is_zero()
        assert sorted({sum(e) for e in s.coeffs}) == ref.support_degrees()


def test_repr_is_the_report_text():
    # the reference repr reads the same formatter, so pin the text
    for n, c, text in [(1, (5,), "w(5)"), (3, (1, 0, 4), "w[1, 0, 4]")]:
        ctx = make_context(3, n, 4)
        R = ring(ctx)
        x = TruncatedSeries.variable(R, 2, 3, 1, power=2)
        s = x * R.raw_col([ctx.scalar(c)])[0] + TruncatedSeries.constant(
            R, 2, 3, R.one)
        one = "w(1)" if n == 1 else "w[1, 0, 0]"
        assert repr(s) == f"{one} + {text}*x1^2"
        assert format_entry(ctx.scalar(c)) == text


def test_ring_ops_match_reference(setting):
    ctx, R, rng = setting
    for nvars, dmax, (a, a_ref) in series_pairs(R, rng):
        b, b_ref = random_series_pair(R, rng, nvars, dmax)
        assert wrapped(a + b) == reference(a_ref + b_ref)
        assert wrapped(a - b) == reference(a_ref - b_ref)
        assert wrapped(-a) == reference(-a_ref)
        assert wrapped(a * b) == reference(a_ref * b_ref)
        assert (a == b) == (a_ref == b_ref)
        assert a == a
        c = rand_raw(R, rng)
        assert wrapped(a * c) == reference(a_ref * ctx.scalar(c))
        # an operand with no terms returns at once, and its window below
        # the bound still joins the result's
        w = rng.randrange(dmax)
        e = TruncatedSeries(R, nvars, dmax, valid=w)
        e_ref = SeriesReference(ctx, nvars, dmax, valid=w)
        for x, y, x_ref, y_ref in ((a, e, a_ref, e_ref), (e, a, e_ref, a_ref),
                                   (e, e, e_ref, e_ref)):
            assert wrapped(x + y) == reference(x_ref + y_ref)
            assert wrapped(x - y) == reference(x_ref - y_ref)
            assert wrapped(x * y) == reference(x_ref * y_ref)
        assert wrapped(-e) == reference(-e_ref)
        assert wrapped(e * c) == reference(e_ref * ctx.scalar(c))


def test_shift_and_combination_match_reference(setting):
    # x_i^k s and s + sum_l row[l] series[l] against the products and sums
    # of the reference: zero row entries and empty series included
    ctx, R, rng = setting
    for nvars, dmax, (s, s_ref) in series_pairs(R, rng):
        i = rng.randrange(nvars)
        for k in range(dmax + 2):
            x_ref = SeriesReference.variable(ctx, nvars, dmax, i, k)
            assert wrapped(s.times_variable(i, k)) == \
                reference(s_ref * x_ref)
        pairs = [random_series_pair(R, rng, nvars, dmax) for _ in range(4)]
        pairs.append((TruncatedSeries(R, nvars, dmax, valid=0),
                      SeriesReference(ctx, nvars, dmax, valid=0)))
        row = [rng.choice((R.zero, rand_raw(R, rng))) for _ in pairs]
        acc = SeriesReference(ctx, nvars, dmax)
        for x, (_, t_ref) in zip(row, pairs):
            if x != R.zero:
                acc = acc + t_ref * ctx.scalar(x)
        got = s.plus_combination(row, [t for t, _ in pairs])
        assert wrapped(got) == reference(s_ref + acc)


def test_scale_p_matches_reference(setting):
    ctx, R, rng = setting
    for _, _, (s, ref) in series_pairs(R, rng):
        for k in (0, 1, 3, ctx.N):
            assert wrapped(s.scale_p(k)) == reference(ref.scale_p(k))


def test_frobenius_lift_matches_reference(setting):
    ctx, R, rng = setting
    for _, _, (s, ref) in series_pairs(R, rng):
        assert wrapped(s.frobenius_lift()) == \
            reference(ref.frobenius_lift())


def test_partial_matches_reference(setting):
    ctx, R, rng = setting
    for nvars, _, (s, ref) in series_pairs(R, rng):
        for i in range(nvars):
            assert wrapped(s.partial(i)) == reference(ref.partial(i))


def test_evaluate_matches_reference(setting):
    ctx, R, rng = setting
    for nvars, _, (s, ref) in series_pairs(R, rng):
        pt = [rand_raw(R, rng) for _ in range(nvars)]
        table = TruncatedSeries.power_table(R, pt, s.dmax)
        assert ctx.scalar(s.evaluate(table)) == \
            ref.evaluate([ctx.scalar(x) for x in pt])
        degree = rng.randrange(s.dmax + 1)
        assert s.is_zero_through(degree) == ref.is_zero_through(degree)
        expo = rng.choice(sorted(s.coeffs) or [(0,) * nvars])
        assert [ctx.scalar(s.coefficient(expo)),
                ctx.scalar(s.constant_term())] == \
            [ref.coefficient(expo), ref.constant_term()]


# ---------------------------------------------------------------------------
# the divided-power correction


def test_divided_power_matches_reference(setting):
    ctx, R, rng = setting
    for _ in range(12):
        y = rand_raw(R, rng)
        for j in range(8):
            got = outcome(divided_power, R, y, j)
            want = outcome(divided_power_reference, ctx, ctx.scalar(y), j)
            if isinstance(want[0], type):
                assert got == want
            else:
                assert ctx.scalar(got) == want


def reference_form(conn):
    """The connection with its series as SeriesReference."""
    ctx = conn.crystal.ctx
    w = {key: SeriesReference(ctx, s.nvars, s.dmax, wrapped(s)[0], s.valid)
         for key, s in conn.w.items()}
    return ConnectionForm(conn.crystal, conn.E, conn.basis, conn.B,
                          conn.dmax, w, conn.a, conn.b)


def connection(make, p, n, N, dmax):
    ctx = make_context(p, n, N)
    X = make(ctx)
    E = end_decompose(slope_split(X))
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    B = select_deformation_basis(O, TangentSpace(X))
    return X, solve_connection(X, O, B, dmax)


CONNECTIONS = [(ordinary_rank2, 2, 1, 24, 8), (ordinary_rank2, 3, 1, 20, 8),
               (ordinary_rank2, 5, 1, 16, 9), (rank6_two_slope, 2, 3, 16, 4),
               (rank6_two_slope, 3, 3, 12, 4)]


@pytest.mark.parametrize("case", CONNECTIONS,
                         ids=lambda c: "%s_p%d_n%d" % (c[0].__name__, c[1],
                                                       c[2]))
def test_correction_factor_matches_reference(case):
    X, conn = connection(*case)
    ctx = X.ctx
    R = ring(ctx)
    conn_ref = reference_form(conn)
    rng = random.Random(7 * ctx.p + ctx.n)
    teich = [R.raw_col([ctx.teichmuller([rng.randrange(ctx.p)
                                         for _ in range(ctx.n)])])[0]
             for _ in range(conn.B.n)]
    points = [teich,
              # p-adically close to a Teichmuller point: y has v >= 1
              [R.add(t, rand_raw(R, rng)) if rng.random() < 0.5 else
               R.add(t, R.of_int(ctx.p)) for t in teich],
              [R.of_int(ctx.p)] * conn.B.n,
              [R.add(t, R.one) for t in teich]]
    for z in points:
        got = outcome(correction_factor, X, conn, z)
        want = outcome(correction_factor_reference, X, conn_ref,
                       [ctx.scalar(x) for x in z])
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [[ctx.scalar(x) for x in row]
                    for row in got.pop("matrix")] == want.pop("matrix")
            assert got == want
