"""The residue-field linear algebra of ``lattices`` against its reference.

``residue_echelon``, ``residue_reduce``, ``residue_kernel``,
``residue_intersection`` and ``residue_spaces_equal`` run the one pivot
loop of ``lattices`` at effective precision 1 on raw entries.  Below,
verbatim apart from the ``_reference`` suffix, is the hand-written
Gauss-Jordan over F_q they replace: it works on residue tuples (a length-n
tuple of ints mod p per entry), summed and tested by its own plain-integer
helpers and multiplied and inverted by ``WittContext.gf_mul`` and
``gf_inv``.  Every result must be equal after mapping
the reference's tuples to raw entries in [0, p).

Inputs are seeded: p in {2, 3, 5} with n = 1 and p in {2, 3} with n = 3,
raw entries of a precision-4 context, so most entries are >= p and many
are nonzero multiples of p.  The tangent space built on these primitives
is checked against the old construction, End(M/pM) modulo the stabilizer
of ker(phi mod p), on every corpus entry (the n = 3 ``example_1_7``
among them), on ``instances.conjugated_draws``, on ``non_split_rank6``
and on the sigma-twisted n = 2 instance.  On every corpus entry
ker(phi mod p) is spanned by standard vectors, so the reduction modulo
F1bar inside ``nu_matrix`` changes no coordinate that a corpus report
reads; ``instances.rank8_conj`` writes ``four_slope_rank8`` in a dense
basis, where it does, and must report as the corpus entry does.
"""

import random

import pytest

from dieudonne import problems
from dieudonne.cli import corpus_names, load_corpus
from dieudonne.core import TangentSpace
from dieudonne.lattices import (residue_echelon, residue_intersection,
                                residue_kernel, residue_reduce,
                                residue_spaces_equal)
from dieudonne.matrix import ring
from dieudonne.problems import Session
from dieudonne.witt import make_context

from instances import (conjugated_draws, non_split_rank6, rank8_conj,
                       sigma_twisted_instance)


# ---------------------------------------------------------------------------
# the reference: linear algebra over F_q on residue tuples


def gf_zero_reference(ctx):
    return tuple([0] * ctx.n)


def residue_reference(ctx, a):
    return tuple(x % ctx.p for x in a)


def gf_add_reference(ctx, a, b):
    return tuple((x + y) % ctx.p for x, y in zip(a, b))


def gf_sub_reference(ctx, a, b):
    return tuple((x - y) % ctx.p for x, y in zip(a, b))


def gf_is_zero_reference(ctx, a):
    return all(x % ctx.p == 0 for x in a)


def gf_vec_sub_reference(ctx, a, b):
    return [gf_sub_reference(ctx, x, y) for x, y in zip(a, b)]


def gf_vec_scale_reference(ctx, c, a):
    return [ctx.gf_mul(c, x) for x in a]


def gf_echelon_reference(ctx, vectors):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(v) for v in vectors]
    m = len(rows[0]) if rows else 0
    ech = []
    pivots = []
    for row in rows:
        row = list(row)
        for erow, pc in zip(ech, pivots):
            if not gf_is_zero_reference(ctx, row[pc]):
                row = gf_vec_sub_reference(
                    ctx, row, gf_vec_scale_reference(ctx, row[pc], erow))
        lead = None
        for j in range(m):
            if not gf_is_zero_reference(ctx, row[j]):
                lead = j
                break
        if lead is None:
            continue
        inv = ctx.gf_inv(row[lead])
        row = gf_vec_scale_reference(ctx, inv, row)
        # back-substitute into earlier rows
        for idx in range(len(ech)):
            if not gf_is_zero_reference(ctx, ech[idx][lead]):
                ech[idx] = gf_vec_sub_reference(
                    ctx, ech[idx],
                    gf_vec_scale_reference(ctx, ech[idx][lead], row))
        ech.append(row)
        pivots.append(lead)
    order = sorted(range(len(ech)), key=lambda i: pivots[i])
    return [ech[i] for i in order], [pivots[i] for i in order]


def gf_reduce_reference(ctx, ech, pivots, vector):
    """Residual of a vector modulo the row space of an echelon basis."""
    row = list(vector)
    for erow, pc in zip(ech, pivots):
        if not gf_is_zero_reference(ctx, row[pc]):
            row = gf_vec_sub_reference(
                ctx, row, gf_vec_scale_reference(ctx, row[pc], erow))
    return row


def gf_rank_reference(ctx, vectors):
    ech, _ = gf_echelon_reference(ctx, vectors)
    return len(ech)


def gf_kernel_reference(ctx, rows):
    """Kernel of a matrix over F_q, as a list of coordinate vectors."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    ech, pivots = gf_echelon_reference(ctx, rows)
    pivot_set = set(pivots)
    free = [j for j in range(nc) if j not in pivot_set]
    basis = []
    one = tuple([1] + [0] * (ctx.n - 1))
    for f in free:
        v = [gf_zero_reference(ctx)] * nc
        v[f] = one
        for erow, pc in zip(ech, pivots):
            v[pc] = gf_sub_reference(ctx, gf_zero_reference(ctx), erow[f])
        basis.append(v)
    return basis


def gf_intersection_reference(ctx, basis1, basis2):
    """Basis of the intersection of two spans."""
    if not basis1 or not basis2:
        return []
    m = len(basis1[0])
    # kernel of the matrix whose columns are basis1, -basis2
    rows = []
    for i in range(m):
        row = [basis1[j][i] for j in range(len(basis1))]
        row += [gf_sub_reference(ctx, gf_zero_reference(ctx), basis2[j][i])
                for j in range(len(basis2))]
        rows.append(row)
    out = []
    for rel in gf_kernel_reference(ctx, rows):
        vec = [gf_zero_reference(ctx)] * m
        for j in range(len(basis1)):
            c = rel[j]
            if not gf_is_zero_reference(ctx, c):
                vec = [gf_add_reference(ctx, vec[i],
                                        ctx.gf_mul(c, basis1[j][i]))
                       for i in range(m)]
        if any(not gf_is_zero_reference(ctx, x) for x in vec):
            out.append(vec)
    ech, piv = gf_echelon_reference(ctx, out)
    return ech


def gf_spaces_equal_reference(ctx, basis1, basis2):
    """Equality of spans (reduced echelon forms are unique)."""
    e1, p1 = gf_echelon_reference(ctx, basis1)
    e2, p2 = gf_echelon_reference(ctx, basis2)
    return p1 == p2 and [list(map(tuple, r)) for r in e1] == \
        [list(map(tuple, r)) for r in e2]


# ---------------------------------------------------------------------------
# the two entry formats


def as_tuple(ctx, x):
    """The reference's input for a raw entry (unreduced, as given)."""
    return x if ctx.n > 1 else (x,)


def as_raw(ctx, t):
    """A reference output entry as a raw entry in [0, p)."""
    p = ctx.p
    return tuple(c % p for c in t) if ctx.n > 1 else t[0] % p


def tuples(ctx, vectors):
    return [[as_tuple(ctx, x) for x in v] for v in vectors]


def raws(ctx, vectors):
    return [[as_raw(ctx, x) for x in v] for v in vectors]


# ---------------------------------------------------------------------------
# seeded inputs

CASES = [(2, 1), (3, 1), (5, 1), (2, 3), (3, 3)]
DRAWS = 40


def _coefficient(rng, p, pN):
    u = rng.random()
    if u < 0.3:
        return 0
    if u < 0.5:
        return rng.randrange(p)
    if u < 0.7:
        return p * rng.randrange(1, pN // p)      # nonzero, zero mod p
    return rng.randrange(pN)


def random_entry(rng, ctx):
    p, pN = ctx.p, ctx.pN
    if ctx.n == 1:
        return _coefficient(rng, p, pN)
    return tuple(_coefficient(rng, p, pN) for _ in range(ctx.n))


def unit_entry(rng, ctx):
    """A raw entry that is nonzero mod p."""
    R = ring(ctx)
    while True:
        x = random_entry(rng, ctx)
        if R.rem(x, ctx.p) != R.zero:
            return x


def combination(rng, ctx, rows):
    """A raw combination of rows with random coefficients."""
    R = ring(ctx)
    out = [R.zero] * len(rows[0])
    for row in rows:
        out = R.axpy(out, random_entry(rng, ctx), row)
    return out


def random_matrix(rng, ctx, k, m):
    """k raw vectors of length m: random, rank-deficient, full-rank, with
    zero vectors and vectors that vanish mod p mixed in."""
    R = ring(ctx)
    kind = rng.choice(("random", "deficient", "full", "vanishing"))
    if kind == "full":
        perm = rng.sample(range(m), m)
        rows = []
        for i in range(min(k, m)):
            row = [R.zero] * m
            row[perm[i]] = unit_entry(rng, ctx)
            for j in perm[i + 1:]:
                row[j] = random_entry(rng, ctx)
            rows.append(row)
        return rng.sample(rows, len(rows))
    rows = [[random_entry(rng, ctx) for _ in range(m)] for _ in range(k)]
    if kind == "deficient" and k > 1:
        keep = rows[:max(1, k // 2)]
        rows = keep + [combination(rng, ctx, keep)
                       for _ in range(k - len(keep))]
    elif kind == "vanishing" and k:
        pm = R.of_int(ctx.p)
        rows[rng.randrange(k)] = [R.zero] * m
        i = rng.randrange(k)
        rows[i] = R.scale(rows[i], pm)
    return rows


def draws(seed):
    rng = random.Random(seed)
    for p, n in CASES:
        ctx = make_context(p, n, 4)
        for _ in range(DRAWS):
            k, m = rng.randrange(0, 6), rng.randrange(1, 7)
            yield rng, ctx, random_matrix(rng, ctx, k, m), m


# ---------------------------------------------------------------------------
# the primitives


def test_echelon_and_rank_match_reference():
    for _, ctx, rows, _ in draws(1):
        ech, piv = residue_echelon(ctx, rows)
        ref_ech, ref_piv = gf_echelon_reference(ctx, tuples(ctx, rows))
        assert (ech, piv) == (raws(ctx, ref_ech), ref_piv)
        assert len(piv) == gf_rank_reference(ctx, tuples(ctx, rows))
    ctx = make_context(3, 1, 4)
    assert residue_echelon(ctx, []) == gf_echelon_reference(ctx, []) \
        == ([], [])


def test_reduce_matches_reference():
    for rng, ctx, rows, m in draws(2):
        ech, piv = residue_echelon(ctx, rows)
        ref_ech, ref_piv = gf_echelon_reference(ctx, tuples(ctx, rows))
        vecs = [[random_entry(rng, ctx) for _ in range(m)],
                [ring(ctx).zero] * m]
        if rows:
            vecs.append(combination(rng, ctx, rows))
        for vec in vecs:
            got = residue_reduce(ctx, ech, piv, vec)
            want = gf_reduce_reference(ctx, ref_ech, ref_piv,
                                       [as_tuple(ctx, x) for x in vec])
            assert got == [as_raw(ctx, x) for x in want]


def test_kernel_matches_reference():
    for _, ctx, rows, m in draws(3):
        got = residue_kernel(ctx, rows, m)
        if rows:
            want = gf_kernel_reference(ctx, tuples(ctx, rows))
        else:
            # the reference reads the width off the first row; with no
            # rows every vector is in the kernel, as for a zero row
            zero_row = [ring(ctx).zero] * m
            want = gf_kernel_reference(ctx, tuples(ctx, [zero_row]))
        assert got == raws(ctx, want)


def test_intersection_matches_reference():
    for rng, ctx, rows, m in draws(4):
        other = random_matrix(rng, ctx, rng.randrange(0, 6), m)
        if rows and other and rng.random() < 0.5:
            # share a vector, so the intersection is not always zero
            other[0] = combination(rng, ctx, rows)
        got = residue_intersection(ctx, rows, other)
        want = gf_intersection_reference(ctx, tuples(ctx, rows),
                                         tuples(ctx, other))
        assert got == raws(ctx, want)


def test_spaces_equal_matches_reference():
    for rng, ctx, rows, m in draws(5):
        # combinations of the rows: often, not always, the same span
        mixed = ([combination(rng, ctx, rows) for _ in rows] + rows[:1]
                 if rows else [])
        for other in (mixed, random_matrix(rng, ctx, len(rows), m), rows,
                      []):
            got = residue_spaces_equal(ctx, rows, other)
            assert got == gf_spaces_equal_reference(
                ctx, tuples(ctx, rows), tuples(ctx, other))


# ---------------------------------------------------------------------------
# the tangent space against the reference construction


def _residue(ctx, x):
    return residue_reference(ctx, x if ctx.n > 1 else (x,))


def tangent_reference(crystal):
    """(fbar1, stabilizer) of the tangent space's old construction as
    End(M/pM) modulo the endomorphisms preserving fbar1, built on the
    reference primitives from residue tuples: the stabilizer is the
    reduced echelon basis of those endomorphisms, flattened row-major."""
    ctx = crystal.ctx
    r = crystal.rank
    arows = [[_residue(ctx, x) for x in row] for row in crystal.phi.rows]
    ker = gf_kernel_reference(ctx, arows)
    inv_twist = (-crystal.phi.twist) % ctx.n
    fbar1 = [[residue_reference(ctx, ctx.frobenius(c, inv_twist)) for c in v]
             for v in ker]
    if fbar1:
        ech, pivots = gf_echelon_reference(ctx, fbar1)
        cond_rows = []
        for v in ech:
            residuals = []
            for a in range(r):
                for b in range(r):
                    img = [gf_zero_reference(ctx)] * r
                    img[a] = v[b]
                    residuals.append(
                        gf_reduce_reference(ctx, ech, pivots, img))
            for coord in range(r):
                cond_rows.append([residuals[k][coord]
                                  for k in range(r * r)])
        f0 = gf_kernel_reference(ctx, cond_rows)
    else:
        one = tuple([1] + [0] * (ctx.n - 1))
        f0 = [[one if j == k else gf_zero_reference(ctx)
               for j in range(r * r)] for k in range(r * r)]
    stabilizer, _ = gf_echelon_reference(ctx, f0)
    return fbar1, stabilizer


def assert_tangent_matches_reference(crystal):
    """nu is End(M/pM) modulo the stabilizer of fbar1: fbar1 is the
    reference's, dim = r^2 - dim(stabilizer), and the combinations of the
    r^2 elementary matrices E_ab that nu sends to zero span the
    stabilizer."""
    ctx = crystal.ctx
    R = ring(ctx)
    r = crystal.rank
    T = TangentSpace(crystal)
    fbar1, stabilizer = tangent_reference(crystal)
    assert T.fbar1 == raws(ctx, fbar1)
    assert T.dim == r * r - len(stabilizer)
    classes = []
    for k in range(r * r):
        e_ab = [[R.one if i * r + j == k else R.zero for j in range(r)]
                for i in range(r)]
        classes.append(T.nu_matrix(e_ab))
        assert len(classes[-1]) == T.dim
    rows = [[c[i] for c in classes] for i in range(T.dim)]
    kernel = residue_kernel(ctx, rows, r * r)
    assert residue_spaces_equal(ctx, kernel, raws(ctx, stabilizer))


@pytest.mark.parametrize("name", corpus_names())
def test_tangent_space_matches_reference_on_the_corpus(name):
    assert_tangent_matches_reference(Session(load_corpus(name)).crystal())


def test_tangent_space_matches_reference_on_conjugates():
    for X in conjugated_draws():
        assert_tangent_matches_reference(X)


OFF_CORPUS = {
    "non_split_rank6": lambda: non_split_rank6(make_context(2, 1, 32)),
    # n = 2 with a sigma-twisted Frobenius: fbar1 is sigma^-1 of the kernel
    "sigma_twisted": sigma_twisted_instance,
}


@pytest.mark.parametrize("name", sorted(OFF_CORPUS))
def test_tangent_space_matches_reference_off_the_corpus(name):
    assert_tangent_matches_reference(OFF_CORPUS[name]())


# analyses whose reports are basis-free and pass on the dense basis
# (axioms, connection and trivialize do not yet)
BASIS_FREE = ["slopes", "decompose", "ominus", "dual", "slices",
              "correction", "strata", "traverso", "polarized"]


def test_dense_basis_reports_as_the_corpus_entry():
    spec = problems.parse_dict(rank8_conj())
    X = Session(spec).crystal()
    # F1bar is not spanned by standard vectors, so nu reduces modulo it
    assert any(sum(1 for x in v if x) > 1 for v in TangentSpace.of(X).ech)
    got = problems.run(spec, BASIS_FREE, 0)
    want = problems.run(load_corpus("four_slope_rank8"), BASIS_FREE, 0)
    for name in BASIS_FREE:
        assert got["analyses"][name] == want["analyses"][name], name
    assert got["all_ok"]
