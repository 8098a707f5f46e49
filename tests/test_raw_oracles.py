"""The End(M), trace and map-algebra bodies that now run on raw
coefficients, checked against the scalar bodies they replaced.

The ``*_reference`` functions below are the former bodies, rewritten on
the raw ``WittContext`` ops.  They read rows of the context's coefficient
tuples, so each map reaches them through ``scalar_view``;
``instances.witt_mat_mul`` is the scalar form of the product they
called.
``mul_mat_reference`` and ``apply_raw_reference`` are the former raw
product bodies, one ``dot`` per output entry (``entry_dot_reference`` is
the former series ``dot``), and check the zero-skipping row combination
``vec_mat`` under ``mul_mat`` and ``SemilinearMap.apply_raw``.
``invert_matrix`` and ``invert_matrix_exact`` are checked against the
exact inverse, over Q(g), of the integers that define a matrix
(``exact_inverse``).  Inputs are seeded:
p in {2, 3, 5} at n = 1 and p in {2, 3} at n = 3, with p-divisible
entries, twists, and nonzero denominators and losses."""

import random
from types import SimpleNamespace

import pytest
import sympy

from dieudonne.errors import SingularMap
from dieudonne.isocrystal import (_map_is_zero, _maps_equal,
                                  _projector_fixed_lattice, sandwich_map,
                                  slope_split)
from dieudonne.lattices import (Lattice, SemilinearMap, invert_matrix,
                                invert_matrix_exact, matrix_kernel)
from dieudonne.matrix import _EntryRing, ring
from dieudonne.series import TruncatedSeries
from dieudonne.signs import trace_of_vectors
from dieudonne.witt import make_context

from instances import (ordinary_rank2, rank6_two_slope, supersingular_rank2,
                       three_slope_rank4, witt_mat_mul)

RINGS = [(2, 1, 12), (3, 1, 10), (5, 1, 9), (2, 3, 12), (3, 3, 10)]


def scalar_view(f):
    """A map with its rows as the context's coefficient tuples, the form
    the former bodies read."""
    return SimpleNamespace(ctx=f.ctx,
                           rows=[[f.ctx.scalar(x) for x in row]
                                 for row in f.rows],
                           twist=f.twist, denominator=f.denominator,
                           loss=f.loss, nrows=f.nrows)


# ---------------------------------------------------------------------------
# the former bodies


def sandwich_map_reference(ctx, left_rows, right_rows, twist=0,
                           denominator=0, loss=0):
    """The map x |-> L sigma^twist(x) R on r x r matrices, flattened
    row-major to r^2 coordinates."""
    r = len(left_rows)
    big = []
    for i in range(r):
        for j in range(r):
            row = []
            for k in range(r):
                for l in range(r):
                    row.append(ctx.mul(left_rows[i][k], right_rows[l][j]))
            big.append(row)
    return SemilinearMap(ctx, big, twist=twist, denominator=denominator,
                         loss=loss)


def trace_of_vectors_reference(ctx, r, xvec, yvec):
    """Trace of the product of two flattened endomorphisms."""
    acc = ctx.scalar(0)
    for i in range(r):
        for j in range(r):
            a = xvec[i * r + j]
            if ctx.is_zero(a):
                continue
            b = yvec[j * r + i]
            if not ctx.is_zero(b):
                acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def projector_fixed_lattice_reference(ctx, proj):
    """M intersect image(proj) = kernel of (1 - proj) on the standard
    lattice (saturated)."""
    r = proj.nrows
    den = proj.denominator
    pk = ctx.scalar(ctx.p ** den)
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            x = ctx.neg(proj.rows[i][j])
            if i == j:
                x = ctx.add(x, pk)
            row.append(x)
        rows.append(row)
    neff = ctx.N - proj.loss
    kern = matrix_kernel(ctx, rows, neff)
    return Lattice.from_columns(ctx, r, kern, loss=proj.loss)


def maps_equal_reference(f, g):
    """Equality of maps up to the recorded losses and denominators."""
    ctx = f.ctx
    if f.twist != g.twist:
        return False
    d = max(f.denominator, g.denominator)
    loss = max(f.loss, g.loss) + max(d - f.denominator, d - g.denominator)
    neff = ctx.N - min(loss, ctx.N - 1)
    pm = ctx.p ** neff
    a = ctx.p ** (d - f.denominator)
    b = ctx.p ** (d - g.denominator)
    for r1, r2 in zip(f.rows, g.rows):
        for x, y in zip(r1, r2):
            if any((u * a - w * b) % pm for u, w in zip(x, y)):
                return False
    return True


def map_is_zero_reference(f):
    ctx = f.ctx
    neff = ctx.N - min(f.loss + max(f.denominator, 0), ctx.N - 1)
    return all(all(ctx.valuation(x) >= neff for x in r) for r in f.rows)


def compose_reference(self, other):
    """self after other."""
    ctx = self.ctx
    e = self.twist
    orows = other.rows
    twisted = [[ctx.frobenius(x, e) for x in r]
               for r in orows] if e else orows
    rows = witt_mat_mul(ctx, self.rows, twisted)
    return SemilinearMap(ctx, rows, self.twist + other.twist,
                         self.denominator + other.denominator,
                         loss=max(self.loss, other.loss))


def int_scale_reference(R, x, u):
    """``_IntRing.scale``: every entry times u, reduced."""
    pN = R.pN
    return [a * u % pN for a in x]


def add_reference(self, other):
    """``SemilinearMap.add``, both operands rescaled to the common
    denominator (by 1 where it is theirs already)."""
    if self.twist != other.twist:
        raise ValueError("cannot add maps of different twists")
    ctx = self.ctx
    R = ring(ctx)
    scale = (lambda x, u: int_scale_reference(R, x, u)) if ctx.n == 1 \
        else R.scale
    d = max(self.denominator, other.denominator)
    a = R.of_int(ctx.p ** (d - self.denominator))
    b = R.of_int(ctx.p ** (d - other.denominator))
    rows = R.add_mat([scale(row, a) for row in self.rows],
                     [scale(row, b) for row in other.rows])
    return SemilinearMap(ctx, rows, self.twist, d,
                         loss=max(self.loss, other.loss))


def mul_mat_reference(R, a, b):
    """The former product: one dot per (row, column) pair."""
    dot = R.dot
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def entry_dot_reference(S, row, col):
    """The former ``_EntryRing.dot``, which its ``mul_mat`` ran on."""
    acc = S.zero
    for x, y in zip(row, col):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x * y
    return acc


def apply_raw_reference(self, col):
    """The former image of a raw column: one dot per row."""
    R = ring(self.ctx)
    if self.twist:
        col = [R.frob(v, self.twist) for v in col]
    dot = R.dot
    return [dot(row, col) for row in self.rows]


# ---------------------------------------------------------------------------
# seeded inputs


def entry(ctx, rng, powers=(0, 0, 1, 2)):
    """A scalar carrying a random p-power, zero now and then, spread over
    the Witt coordinates."""
    p, N = ctx.p, ctx.N
    return ctx.scalar([rng.randrange(-30, 31) * p ** rng.choice(powers + (N,))
                       for _ in range(ctx.n)])


def matrix(ctx, rng, r, c=None, powers=(0, 0, 1, 2)):
    return [[entry(ctx, rng, powers) for _ in range(c or r)]
            for _ in range(r)]


def random_map(ctx, rng, r, powers=(0, 0, 1, 2)):
    return SemilinearMap(ctx, matrix(ctx, rng, r, powers=powers),
                         twist=rng.randrange(ctx.n),
                         denominator=rng.randrange(-1, 3),
                         loss=rng.randrange(3))


def raw_matrix(ctx, rng, r, c, zero_share):
    """Raw entries, each zero with the given share, else in Z_p or
    spread over the Witt coordinates, half and half."""
    R = ring(ctx)

    def one():
        if rng.random() < zero_share:
            return R.zero
        if rng.random() < 0.5:
            return R.of_int(rng.randrange(1, 31) * ctx.p ** rng.choice(
                (0, 0, 1, 2)))
        return R.raw_col([entry(ctx, rng)])[0]

    return [[one() for _ in range(c)] for _ in range(r)]


def same_map(got, want):
    return (got.rows == want.rows and got.twist == want.twist
            and got.denominator == want.denominator
            and got.loss == want.loss)


def integer_idempotent(rng, r, k):
    """U diag(1^k, 0^(r-k)) U^{-1} for a seeded unimodular U."""
    low = sympy.Matrix(r, r, lambda i, j: 1 if i == j else
                       (rng.randrange(-2, 3) if i > j else 0))
    up = sympy.Matrix(r, r, lambda i, j: 1 if i == j else
                      (rng.randrange(-2, 3) if i < j else 0))
    u = low * up
    d = sympy.diag(*([1] * k + [0] * (r - k)))
    e = u * d * u.inv()
    return [[int(e[i, j]) for j in range(r)] for i in range(r)]


# ---------------------------------------------------------------------------
# the checks


@pytest.mark.parametrize("p, n, N", RINGS)
def test_sandwich_map_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(53 * p + n)
    for r in (1, 2, 3):
        for _ in range(4):
            left, right = matrix(ctx, rng, r), matrix(ctx, rng, r)
            twist = rng.randrange(n)
            den, loss = rng.randrange(-1, 3), rng.randrange(3)
            got = sandwich_map(ctx, R.raw_mat(left), R.raw_mat(right),
                               twist=twist, denominator=den, loss=loss)
            want = sandwich_map_reference(ctx, left, right, twist=twist,
                                          denominator=den, loss=loss)
            assert same_map(got, want)


@pytest.mark.parametrize("p, n, N", RINGS)
def test_trace_of_vectors_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(59 * p + n)
    for r in (1, 2, 3, 4):
        for _ in range(6):
            x = [entry(ctx, rng) for _ in range(r * r)]
            y = [entry(ctx, rng) for _ in range(r * r)]
            got = trace_of_vectors(ctx, r, R.raw_col(x), R.raw_col(y))
            assert ctx.scalar(got) == \
                trace_of_vectors_reference(ctx, r, x, y)


def projector_inputs(ctx, rng):
    """p^den times integer idempotents (saturated kernels of every rank),
    the slope projectors of the test instances, and arbitrary maps."""
    for r in (2, 3, 4):
        for k in range(r + 1):
            den, loss = rng.randrange(3), rng.randrange(3)
            rows = [[x * ctx.p ** den for x in row]
                    for row in integer_idempotent(rng, r, k)]
            yield SemilinearMap(ctx, rows, denominator=den, loss=loss)
    makers = ([rank6_two_slope] if ctx.n > 1 else
              [ordinary_rank2, supersingular_rank2, three_slope_rank4])
    for make in makers:
        yield from slope_split(make(ctx)).projectors.values()
    for r in (2, 3):
        # projector denominators are never negative
        f = random_map(ctx, rng, r)
        yield SemilinearMap(ctx, f.rows, denominator=abs(f.denominator),
                            loss=f.loss)


@pytest.mark.parametrize("p, n, N", RINGS)
def test_projector_fixed_lattice_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    rng = random.Random(61 * p + n)
    ranks = set()
    for proj in projector_inputs(ctx, rng):
        got = _projector_fixed_lattice(ctx, proj)
        want = projector_fixed_lattice_reference(ctx, scalar_view(proj))
        assert (got.cols, got.pivots, got.scale, got.loss) == \
            (want.cols, want.pivots, want.scale, want.loss)
        ranks.add(got.rank)
    assert len(ranks) > 2


@pytest.mark.parametrize("p, n, N", RINGS)
def test_maps_equal_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    rng = random.Random(67 * p + n)
    outcomes = set()
    for r in (1, 2, 3):
        for _ in range(6):
            f = random_map(ctx, rng, r)
            k = rng.randrange(1, 3)
            # the same map with a p^k-multiplied matrix and denominator
            lifted = SemilinearMap(ctx, [[ctx.mul_int(x, p ** k) for x in row]
                                         for row in scalar_view(f).rows],
                                   f.twist, f.denominator + k, f.loss)
            # perturbed at the trusted precision, or low down
            low = ctx.scalar(p ** (N - f.loss - 1))
            near = SemilinearMap(ctx, [[ctx.add(x, low) for x in row]
                                       for row in scalar_view(f).rows],
                                 f.twist, f.denominator, f.loss)
            far = random_map(ctx, rng, r)
            twisted = SemilinearMap(ctx, f.rows, f.twist + 1,
                                    f.denominator, f.loss)
            for g in (f, lifted, near, far, twisted):
                want = maps_equal_reference(scalar_view(f), scalar_view(g))
                assert _maps_equal(f, g) == want
                outcomes.add(want)
    assert outcomes == {False, True}


@pytest.mark.parametrize("p, n, N", RINGS)
def test_map_is_zero_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    rng = random.Random(71 * p + n)
    outcomes = set()
    for r in (1, 2, 3):
        for _ in range(8):
            f = random_map(ctx, rng, r, powers=(N - 3, N - 2, N - 1))
            want = map_is_zero_reference(scalar_view(f))
            assert _map_is_zero(f) == want
            outcomes.add(want)
    assert outcomes == {False, True}


@pytest.mark.parametrize("p, n, N", RINGS)
def test_compose_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    rng = random.Random(73 * p + n)
    for r in (1, 2, 3):
        for _ in range(6):
            f, g = random_map(ctx, rng, r), random_map(ctx, rng, r)
            want = compose_reference(scalar_view(f), scalar_view(g))
            assert same_map(f.compose(g), want)


def exact_inverse(ctx, ints):
    """(numerator, vdet) of the exact inverse p^{-vdet} * numerator of the
    matrix whose entries are integer coefficient lists in the power basis
    of Q(g) = Q[x]/(f), the numerator as raw entries mod p^N; None when
    the matrix is singular.  An element acts on Q(g) by an n x n rational
    matrix, so the inverse is read off the inverse of the rn x rn block
    matrix: block (i, j) applied to 1 gives the coordinates of entry
    (i, j)."""
    p, n, r, pN = ctx.p, ctx.n, len(ints), ctx.pN
    times_g = sympy.Matrix(n, n, lambda i, j: -ctx.f[i] if j == n - 1
                           else int(i == j + 1))
    big = sympy.zeros(r * n, r * n)
    for i, row in enumerate(ints):
        for j, coeffs in enumerate(row):
            power = sympy.eye(n)
            for c in coeffs:
                big[i * n:(i + 1) * n, j * n:(j + 1) * n] += c * power
                power = times_g * power
    det = big.det()
    if det == 0:
        return None
    # the determinant of the block matrix is the norm of det, so its
    # valuation is n times that of det (Q(g) is unramified at p)
    vdet = sympy.multiplicity(p, det) // n
    inv = big.inv() * p ** vdet

    def raw(i, j):
        coords = []
        for k in range(n):
            q = sympy.Rational(inv[i * n + k, j * n])
            assert q.q % p
            coords.append(q.p * pow(q.q, -1, pN) % pN)
        return tuple(coords) if n > 1 else coords[0]

    return [[raw(i, j) for j in range(r)] for i in range(r)], vdet


@pytest.mark.parametrize("p, n, N", RINGS)
def test_inverse_matches_reference(p, n, N):
    # matrices defined by integers, negative ones among them: the inverse
    # of their residues agrees with the exact inverse of those integers
    # modulo p^(N - vdet), and the inverse lifted from the integers
    # themselves agrees at every digit
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(79 * p + n)
    inverted = with_denominator = 0
    for r in (1, 2, 3):
        for t in range(6):
            ints = [[[rng.randrange(-30, 31) * p ** rng.choice((0, 0, 1, 2, N))
                      for _ in range(n)] for _ in range(r)] for _ in range(r)]
            if t % 2:
                # a p-divisible column gives the inverse a denominator
                for row in ints:
                    row[0] = [c * p for c in row[0]]
            exact = exact_inverse(ctx, ints)
            try:
                got, vdet = invert_matrix(ctx, ints)
            except SingularMap:
                # some elementary divisor vanishes at the precision
                assert exact is None or exact[1] >= N
                continue
            num, want_vdet = exact
            assert vdet == want_vdet
            for got_row, want in zip(got, num):
                assert R.vanishes(list(map(R.sub, got_row, want)), N - vdet)
            assert invert_matrix_exact(ctx, ints) == (num, vdet)
            inverted += 1
            with_denominator += vdet > 0
    assert inverted and with_denominator


@pytest.mark.parametrize("p, n, N", RINGS)
def test_add_matches_reference(p, n, N, monkeypatch):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(83 * p + n)
    real_scale = R.scale
    scaled = []

    def counted(x, u):
        scaled.append(u)
        return real_scale(x, u)

    monkeypatch.setattr(R, "scale", counted)
    for r in (1, 2, 3):
        for t in range(8):
            f, g = random_map(ctx, rng, r), random_map(ctx, rng, r)
            g = SemilinearMap(ctx, g.rows, f.twist,
                              f.denominator if t % 2 else g.denominator,
                              g.loss)
            del scaled[:]
            got = f.add(g)
            # only the operand below the common denominator is rescaled,
            # and never by 1
            lifted = [m for m in (f, g) if m.denominator < got.denominator]
            assert len(scaled) == sum(m.nrows for m in lifted)
            assert R.one not in scaled
            assert same_map(got, add_reference(f, g))


@pytest.mark.parametrize("p, n, N", RINGS)
def test_scale_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(89 * p + n)
    for _ in range(20):
        x = R.raw_col([entry(ctx, rng) for _ in range(rng.randrange(5))])
        for u in (R.one, R.zero, R.of_int(p),
                  R.raw_col([entry(ctx, rng)])[0]):
            got = R.scale(x, u)
            want = int_scale_reference(R, x, u) if n == 1 else \
                [R.mul(a, u) for a in x]
            assert got == want
            # a fresh list: the caller may write to it
            assert got is not x


@pytest.mark.parametrize("p, n, N", RINGS)
def test_mul_mat_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(97 * p + n)
    zero = R.zero
    for zero_share in (0.0, 0.5, 0.95):
        for r, m, c in ((1, 1, 1), (2, 3, 4), (5, 5, 5), (4, 1, 3),
                        (3, 6, 2)):
            a = raw_matrix(ctx, rng, r, m, zero_share)
            b = raw_matrix(ctx, rng, m, c, zero_share)
            a[-1] = [zero] * m
            want = mul_mat_reference(R, a, b)
            assert R.mul_mat(a, b) == want
            # the lattice and map data are tuples of tuples
            assert R.mul_mat(tuple(map(tuple, a)),
                             tuple(map(tuple, b))) == want
    b = raw_matrix(ctx, rng, 3, 4, 0.5)
    # no rows, an inner dimension of 0, and a zero left operand
    assert R.mul_mat([], b) == mul_mat_reference(R, [], b) == []
    assert R.mul_mat([[], []], []) == mul_mat_reference(R, [[], []], [])
    zeros = [[zero] * 3] * 2
    assert R.mul_mat(zeros, b) == mul_mat_reference(R, zeros, b) == \
        [[zero] * 4] * 2


def test_entry_mul_mat_matches_reference():
    # series entries: both skip every zero product, so coefficients and
    # validity windows agree exactly
    rng = random.Random(101)
    ctx = make_context(3, 1, 8)
    R = ring(ctx)
    nvars, dmax = 2, 4
    S = _EntryRing(TruncatedSeries.zero(R, nvars, dmax),
                   TruncatedSeries.constant(R, nvars, dmax, R.one))

    def series():
        coeffs = {}
        if rng.random() < 0.6:
            for _ in range(rng.randrange(1, 4)):
                expo = tuple(rng.randrange(3) for _ in range(nvars))
                coeffs[expo] = R.of_int(rng.randrange(1, ctx.pN))
        return TruncatedSeries(R, nvars, dmax, coeffs,
                               valid=rng.randrange(dmax + 1))

    for r, m, c in ((2, 2, 2), (3, 4, 2), (1, 3, 1), (2, 0, 3)):
        a = [[series() for _ in range(m)] for _ in range(r)]
        b = [[series() for _ in range(c)] for _ in range(m)]
        got = S.mul_mat(a, b)
        want = [[entry_dot_reference(S, row, col) for col in zip(*b)]
                for row in a]
        assert [[(x.coeffs, x.valid) for x in row] for row in got] == \
            [[(x.coeffs, x.valid) for x in row] for row in want]


@pytest.mark.parametrize("p, n, N", RINGS)
def test_apply_raw_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    rng = random.Random(103 * p + n)
    for r, c in ((1, 1), (3, 3), (4, 2), (2, 5), (3, 0)):
        for zero_share in (0.0, 0.9):
            f = SemilinearMap(ctx, raw_matrix(ctx, rng, r, c, zero_share),
                              twist=rng.randrange(n))
            for _ in range(3):
                col = raw_matrix(ctx, rng, 1, c, zero_share)[0]
                assert f.apply_raw(col) == apply_raw_reference(f, col)


def test_columns_are_built_once_per_map():
    ctx = make_context(3, 3, 10)
    rng = random.Random(109)
    f = SemilinearMap(ctx, raw_matrix(ctx, rng, 4, 4, 0.5), twist=1)
    assert f._tcols is None
    cols = raw_matrix(ctx, rng, 3, f.ncols, 0.5)
    f.apply_raw(cols[0])
    built = f._tcols
    assert built == tuple(zip(*f.rows))
    for col in cols[1:]:
        assert f.apply_raw(col) == apply_raw_reference(f, col)
        assert f._tcols is built
