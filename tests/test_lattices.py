"""Lattice algebra tests, cross-checked against integer-arithmetic oracles
(sympy normal forms, residue enumeration) that share no code with the
library implementation, and the raw-coefficient kernels against the
scalar kernels they replaced, rewritten on the raw ``WittContext``
ops."""

import itertools
import pathlib
import random
from types import SimpleNamespace

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

import dieudonne
from dieudonne.cli import load_corpus
from dieudonne.deformation import solve_connection
from dieudonne.problems import RUNNERS, Session
from dieudonne.witt import make_context
from dieudonne.lattices import (
    Lattice, SemilinearMap, _back_substitute, _reduce_columns, boosted,
    intersect, invert_matrix, lattice_sum, mod_p_dimension, restrict_map,
    saturate, smith_valuations,
)
from dieudonne.errors import (HypothesisViolated, InclusionViolated,
                              PrecisionExhausted, SingularMap)
from dieudonne.matrix import ring

from instances import raw


def int_lattice(ctx, cols):
    return Lattice.from_columns(ctx, len(cols[0]), raw(ctx, cols))


def recanonicalize(L):
    """Canonical form of a lattice rebuilt from its own basis."""
    return Lattice.from_columns(L.ctx, L.ambient, L.cols,
                                scale=L.scale, loss=L.loss)


def test_contains_honours_the_operand_loss():
    # a lattice known only modulo p^(N - 2) lies in the one it was read
    # from, although its columns differ from it at the digits it does not
    # know; a difference at a known digit still counts
    ctx = make_context(3, 1, 12)
    R = ring(ctx)
    L = int_lattice(ctx, [[1, 0, 0], [0, 3, 0]])
    noise = 3 ** 10
    cols = [[1, 0, noise], [0, 3, 2 * noise]]
    blurred = Lattice.from_columns(ctx, 3, cols, loss=2)
    assert L.contains(blurred)
    assert not L.contains(blurred.with_loss(0))
    assert L.solve(R.raw_col(cols[0]), vloss=2) is not None
    assert L.solve(R.raw_col(cols[0])) is None
    far = Lattice.from_columns(ctx, 3, [[1, 0, 3 ** 9]], loss=2)
    assert not L.contains(far)


def test_hermite_identity():
    ctx = make_context(2, 1, 12)
    L = Lattice.standard(ctx, 3)
    H = recanonicalize(L)
    assert H.equals(L)
    assert H.rank == 3
    assert [e for (_, e) in H.pivots] == [0, 0, 0]


def test_hermite_drops_dependent_column():
    ctx = make_context(2, 1, 12)
    L = int_lattice(ctx, [[2, 0], [1, 0]])
    # (2,0) = 2*(1,0): a single pivot column survives
    assert L.rank == 1
    assert L.contains_vector(raw(ctx, [[ctx.scalar(1), ctx.scalar(0)]])[0])
    assert L.contains_vector([1, 0]) and not L.contains_vector([0, 1])


def test_hermite_idempotent():
    ctx = make_context(3, 1, 10)
    rng = random.Random(1)
    for _ in range(10):
        cols = [[rng.randrange(-8, 9) for _ in range(3)] for _ in range(3)]
        if sympy.Matrix(cols).T.det() == 0:
            continue
        L = int_lattice(ctx, cols)
        H = recanonicalize(L)
        H2 = recanonicalize(H)
        assert H.cols == H2.cols and H.pivots == H2.pivots
        assert H.equals(L)


def p_part_of_index(det, p):
    det = abs(int(det))
    assert det != 0
    v = 0
    while det % p == 0:
        det //= p
        v += 1
    return v


def test_hermite_index_matches_integer_oracle():
    # the p-part of [Z^3 : L] equals the sum of pivot valuations
    rng = random.Random(42)
    for p in (2, 3):
        ctx = make_context(p, 1, 14)
        for _ in range(15):
            cols = [[rng.randrange(-9, 10) for _ in range(3)]
                    for _ in range(3)]
            m = sympy.Matrix(3, 3, lambda i, j: cols[j][i])
            if m.det() == 0:
                continue
            L = int_lattice(ctx, cols)
            assert L.index_valuation() == p_part_of_index(m.det(), p)


def test_hermite_canonical_form_presentation_independent():
    # two generating sets of one lattice canonicalize identically
    rng = random.Random(7)
    ctx = make_context(2, 1, 14)
    for _ in range(10):
        cols = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        m = sympy.Matrix(3, 3, lambda i, j: cols[j][i])
        if m.det() == 0:
            continue
        L1 = int_lattice(ctx, cols)
        # unimodular recombination of the generators
        c2 = [
            [cols[0][i] + 2 * cols[1][i] for i in range(3)],
            [cols[1][i] for i in range(3)],
            [cols[2][i] - cols[0][i] for i in range(3)],
        ]
        L2 = int_lattice(ctx, c2)
        assert L1.equals(L2)


def enumerate_lattice_mod(cols, p, k):
    """All residues of the column span mod p^k (oracle)."""
    m = p ** k
    pts = set()
    ncols = len(cols)
    r = len(cols[0])
    for coeffs in itertools.product(range(m), repeat=ncols):
        v = tuple(sum(coeffs[j] * cols[j][i] for j in range(ncols)) % m
                  for i in range(r))
        pts.add(v)
    return pts


def test_intersect_self():
    ctx = make_context(2, 1, 12)
    L = int_lattice(ctx, [[1, 0], [0, 2]])
    assert intersect(L, L).equals(L)


def test_sum_absorbs_p_multiple():
    ctx = make_context(3, 1, 12)
    L = int_lattice(ctx, [[1, 2], [0, 3]])
    pL = Lattice.from_columns(ctx, 2, [[x * 3 for x in c] for c in L.cols])
    assert lattice_sum(L, pL).equals(L)


def test_intersect_against_enumeration():
    p, k = 2, 3
    ctx = make_context(p, 1, 12)
    rng = random.Random(5)
    for _ in range(8):
        c1 = [[rng.randrange(8) for _ in range(2)] for _ in range(2)]
        c2 = [[rng.randrange(8) for _ in range(2)] for _ in range(2)]
        if sympy.Matrix(c1).det() % 2 == 0 and sympy.Matrix(c1).det() != 0:
            pass
        m1 = sympy.Matrix(2, 2, lambda i, j: c1[j][i])
        m2 = sympy.Matrix(2, 2, lambda i, j: c2[j][i])
        if m1.det() == 0 or m2.det() == 0:
            continue
        L1, L2 = int_lattice(ctx, c1), int_lattice(ctx, c2)
        got = intersect(L1, L2)
        # oracle: residues mod p^k of the intersection
        s1 = enumerate_lattice_mod(c1, p, k)
        s2 = enumerate_lattice_mod(c2, p, k)
        want = s1 & s2
        got_pts = enumerate_lattice_mod([list(col) for col in got.cols],
                                        p, k)
        assert got_pts <= want
        # double inclusion: every common residue is hit
        assert len(got_pts) == len(want) or got_pts == want


def test_modular_law():
    # intersect(L1, sum(L1, L2)) == L1 on random small lattices
    rng = random.Random(9)
    ctx = make_context(2, 1, 14)
    for _ in range(12):
        c1 = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(3)]
        c2 = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(3)]
        if (sympy.Matrix(3, 3, lambda i, j: c1[j][i]).det() == 0
                or sympy.Matrix(3, 3, lambda i, j: c2[j][i]).det() == 0):
            continue
        L1, L2 = int_lattice(ctx, c1), int_lattice(ctx, c2)
        assert intersect(L1, lattice_sum(L1, L2)).equals(L1)


def test_saturate_basics():
    ctx = make_context(2, 1, 12)
    amb = Lattice.standard(ctx, 2)
    pamb = int_lattice(ctx, [[2, 0], [0, 2]])
    assert saturate(pamb, amb).equals(amb)
    L = int_lattice(ctx, [[2, 4]])
    S = saturate(L, amb)
    assert S.contains(L)
    assert S.contains_vector(raw(ctx, [[ctx.scalar(1), ctx.scalar(2)]])[0])
    assert S.rank == 1


def test_saturate_needs_a_saturated_ambient():
    # span{(1, 0)} lies in amb[1/p] but not in amb = 2Z + 4Z, which is not
    # saturated: the raw column does not solve integrally, and no retry on
    # p^k times it hides that
    ctx = make_context(2, 1, 12)
    amb = int_lattice(ctx, [[2, 0], [0, 4]])
    for col in ([1, 0], [0, 1], [1, 1]):
        with pytest.raises(InclusionViolated, match="ambient"):
            saturate(int_lattice(ctx, [col]), amb)
    # inside the saturated ambient the same lattices saturate
    std = Lattice.standard(ctx, 2)
    assert saturate(int_lattice(ctx, [[2, 0]]), std).equals(
        int_lattice(ctx, [[1, 0]]))


def test_saturate_is_not_naive_content_division():
    # span{(1,p),(p,1)} has unit index, so it is already saturated
    for p in (2, 5):
        ctx = make_context(p, 1, 12)
        amb = Lattice.standard(ctx, 2)
        L = int_lattice(ctx, [[1, p], [p, 1]])
        assert saturate(L, amb).equals(L)


def test_saturate_mixed_powers_integer_oracle():
    # index of the saturation equals det with p-part removed
    rng = random.Random(11)
    for p in (2, 3):
        ctx = make_context(p, 1, 16)
        amb = Lattice.standard(ctx, 2)
        for _ in range(10):
            cols = [[rng.randrange(-9, 10) for _ in range(2)]
                    for _ in range(2)]
            m = sympy.Matrix(2, 2, lambda i, j: cols[j][i])
            if m.det() == 0:
                continue
            L = int_lattice(ctx, cols)
            S = saturate(L, amb)
            assert S.contains(L)
            assert saturate(S, amb).equals(S)
            assert S.index_valuation() == 0


def test_apply_and_preimage():
    ctx = make_context(2, 1, 12)
    L = Lattice.standard(ctx, 2)
    ident = SemilinearMap.identity(ctx, 2)
    assert ident(L).equals(L)
    pid = ident.scale_p(1)  # multiplication by p with scale bookkeeping
    pL = pid(L)
    assert pL.equals(int_lattice(ctx, [[2, 0], [0, 2]]))
    phi = SemilinearMap(ctx, [[1, 0], [0, 2]], twist=1)
    img = phi(L)
    assert img.equals(int_lattice(ctx, [[1, 0], [0, 2]]))


def test_invert_singular_matrix_raises():
    ctx = make_context(2, 1, 10)
    with pytest.raises(SingularMap):
        invert_matrix(ctx, [[1, 1], [1, 1]])


def test_apply_compose_consistency():
    ctx = make_context(2, 2, 12)
    rng = random.Random(3)
    for _ in range(6):
        rows1 = [[ctx.scalar([rng.randrange(4), rng.randrange(4)])
                  for _ in range(2)] for _ in range(2)]
        rows2 = [[ctx.scalar([rng.randrange(4), rng.randrange(4)])
                  for _ in range(2)] for _ in range(2)]
        f = SemilinearMap(ctx, rows1, twist=1)
        h = SemilinearMap(ctx, rows2, twist=1)
        L = int_lattice(ctx, [[1, 3], [0, 1]])
        lhs = f.compose(h)(L)
        rhs = f(h(L))
        assert lhs.equals(rhs)


def test_invert_matrix_roundtrip():
    ctx = make_context(2, 1, 16)
    rows = [[ctx.scalar(1), ctx.scalar(2)], [ctx.scalar(0), ctx.scalar(4)]]
    inv, vdet = invert_matrix(ctx, raw(ctx, rows))
    inv = [[ctx.scalar(x) for x in row] for row in inv]
    assert vdet == 2
    # A * inv = p^vdet * I
    for i in range(2):
        for j in range(2):
            acc = ctx.scalar(0)
            for k in range(2):
                acc = ctx.add(acc, ctx.mul(rows[i][k], inv[k][j]))
            want = ctx.scalar(4 if i == j else 0)
            assert acc == want


def test_mod_p_dimension():
    ctx = make_context(2, 1, 12)
    L = Lattice.standard(ctx, 3)
    pL = int_lattice(ctx, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert mod_p_dimension(pL, L) == 3
    assert mod_p_dimension(L, L) == 0
    mixed = int_lattice(ctx, [[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    assert mod_p_dimension(mixed, L) == 2


def test_mod_p_dimension_oracle():
    # rank of the reduced coordinate matrix, via sympy over GF(p)
    rng = random.Random(17)
    p = 3
    ctx = make_context(p, 1, 14)
    sup = Lattice.standard(ctx, 3)
    for _ in range(10):
        cols = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        m = sympy.Matrix(3, 3, lambda i, j: cols[j][i])
        if m.det() == 0:
            continue
        sub = int_lattice(ctx, cols)
        got = mod_p_dimension(sub, sup)
        red = m.applyfunc(lambda x: x % p)
        rank = red.rank(iszerofunc=lambda x: x % p == 0)
        assert got == 3 - rank


def test_mod_p_dimension_inclusion_check():
    ctx = make_context(2, 1, 12)
    L = int_lattice(ctx, [[2, 0], [0, 2]])
    with pytest.raises(InclusionViolated):
        mod_p_dimension(Lattice.standard(ctx, 2), L)


def test_restrict_map():
    ctx = make_context(2, 1, 12)
    phi = SemilinearMap(ctx, [[1, 0], [0, 2]], twist=1)
    L = int_lattice(ctx, [[1, 0], [0, 2]])
    r = restrict_map(phi, L)
    # phi restricted to its own image is still integral
    assert r.nrows == 2
    sub = int_lattice(ctx, [[1, 0]])
    r2 = restrict_map(phi, sub)
    assert r2.rows[0][0] == ring(ctx).one


# ---------------------------------------------------------------------------
# Lattice.coordinates: the one loop that solves a list of vectors


def test_coordinates_solve_each_vector():
    ctx = make_context(3, 1, 12)
    R = ring(ctx)
    L = int_lattice(ctx, [[1, 0, 0], [0, 3, 0]])
    vecs = [R.raw_col(v) for v in ([2, 0, 0], [0, 9, 0], [1, 3, 0])]
    got = L.coordinates(vecs)
    assert [list(x) for x in got] == [[2, 0], [0, 3], [1, 1]]
    assert got == [L.solve(v) for v in vecs]
    assert L.coordinates([]) == []
    assert L.coordinates(iter(vecs)) == got


def test_coordinates_shift_the_vectors_by_the_scale_gap():
    ctx = make_context(3, 1, 12)
    R = ring(ctx)
    L = int_lattice(ctx, [[1, 0, 0], [0, 3, 0]])
    # vscale above the lattice's: p^-1 v, so 3 e1 and 9 e2 come in
    got = L.coordinates([R.raw_col([3, 0, 0]), R.raw_col([0, 9, 0])], 1)
    assert [list(x) for x in got] == [[1, 0], [0, 1]]
    assert L.coordinates([R.raw_col([3, 0, 0]), R.raw_col([1, 0, 0])],
                         1) is None
    # the lattice's scale above vscale: p^-1 L takes e1 and e2 as p v
    big = Lattice.from_columns(ctx, 3, [[1, 0, 0], [0, 3, 0]], scale=1)
    got = big.coordinates([R.raw_col([1, 0, 0]), R.raw_col([0, 1, 0])])
    assert [list(x) for x in got] == [[3, 0], [0, 1]]
    assert big.coordinates([R.raw_col([0, 0, 1])]) is None


def test_coordinates_read_the_vectors_modulo_their_loss():
    ctx = make_context(3, 1, 12)
    R = ring(ctx)
    L = int_lattice(ctx, [[1, 0, 0], [0, 3, 0]])
    blurred = [R.raw_col([1, 0, 3 ** 10]), R.raw_col([0, 3, 2 * 3 ** 10])]
    got = L.coordinates(blurred, vloss=2)
    assert [list(x) for x in got] == [[1, 0], [0, 1]]
    assert L.coordinates(blurred) is None
    assert L.coordinates([R.raw_col([1, 0, 3 ** 9])], vloss=2) is None


def test_coordinates_stop_at_the_first_vector_outside():
    ctx = make_context(3, 1, 12)
    R = ring(ctx)
    L = int_lattice(ctx, [[1, 0, 0], [0, 3, 0]])
    inside, outside = R.raw_col([1, 0, 0]), R.raw_col([0, 1, 0])
    drawn = []

    def vectors():
        for v in (inside, outside, inside):
            drawn.append(v)
            yield v

    assert L.coordinates(vectors()) is None
    assert drawn == [inside, outside]


def test_coordinate_callers_keep_their_errors():
    ctx = make_context(3, 1, 12)
    L = int_lattice(ctx, [[1, 0, 0], [0, 3, 0]])
    assert not L.contains(Lattice.standard(ctx, 3))
    with pytest.raises(ValueError, match="ambient ranks differ"):
        L.contains(Lattice.standard(ctx, 2))
    with pytest.raises(InclusionViolated,
                       match="sub-lattice not contained in sup"):
        mod_p_dimension(Lattice.standard(ctx, 3), L)
    swap = SemilinearMap(ctx, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(InclusionViolated,
                       match="lattice is not stable under the map"):
        restrict_map(swap, L)
    D = Session(load_corpus("three_slope_rank4")).decomp()
    with pytest.raises(InclusionViolated,
                       match="lattice is not inside its carrier"):
        D.carrier("plus").coords(D.V_minus)


def test_solve_connection_keeps_its_error():
    sess = Session(load_corpus("three_slope_rank4"))
    X, E = sess.crystal(), sess.lattice_e()
    R = ring(X.ctx)
    outside = next(v for v in R.identity(X.rank ** 2)
                   if not E.contains_vector(v))
    with pytest.raises(HypothesisViolated,
                       match="a deformation vector does not lie in E"):
        solve_connection(X, E, SimpleNamespace(n=1, vectors=[outside]),
                         X.ctx.p - 1)


def test_zero_rank_lattice():
    ctx = make_context(2, 1, 10)
    Z = Lattice.zero(ctx, 3)
    L = Lattice.standard(ctx, 3)
    assert intersect(Z, L).rank == 0
    assert lattice_sum(Z, L).equals(L)
    assert mod_p_dimension(Z, L) == 3
    assert Z.rank == 0


def test_scaled_lattices():
    ctx = make_context(2, 1, 12)
    L = Lattice.from_columns(ctx, 2, [[1, 0]], scale=1)
    # p^{-1} e1: contains e1 but not vice versa
    E1 = int_lattice(ctx, [[1, 0]])
    assert L.contains(E1)
    assert not E1.contains(L)
    assert lattice_sum(L, E1).equals(L)
    assert intersect(L, E1).equals(E1)


def _smith_valuations_reference(ctx, rows, neff=None):
    """The former full row-and-column clearing implementation, kept as
    the oracle for the echelon-based smith_valuations."""
    neff = ctx.N if neff is None else neff
    m = len(rows)
    work = [[ctx.scalar(x) for x in r] for r in rows]
    mul, sub, val = ctx.mul, ctx.sub, ctx.valuation
    alive_r = list(range(m))
    alive_c = list(range(len(rows[0]) if rows else 0))
    out = []
    while alive_r and alive_c:
        best = None
        for i in alive_r:
            for j in alive_c:
                v = val(work[i][j])
                if v >= neff:
                    continue
                if best is None or (v, i, j) < best:
                    best = (v, i, j)
        if best is None:
            out.extend([neff] * min(len(alive_r), len(alive_c)))
            return sorted(out)
        e, pi, pj = best
        piv = work[pi][pj]
        unit_inv = ctx.unit_inverse(ctx.divide_p_power(piv, e))
        # clear the pivot column, then the pivot row
        for i in alive_r:
            if i == pi:
                continue
            x = work[i][pj]
            if ctx.is_zero(x):
                continue
            q = mul(ctx.divide_p_power(x, e), unit_inv)
            work[i] = [sub(work[i][k], mul(q, work[pi][k]))
                       for k in range(len(work[i]))]
        for j in alive_c:
            if j == pj:
                continue
            x = work[pi][j]
            if ctx.is_zero(x):
                continue
            q = mul(ctx.divide_p_power(x, e), unit_inv)
            for i in alive_r:
                work[i][j] = sub(work[i][j], mul(q, work[i][pj]))
        alive_r.remove(pi)
        alive_c.remove(pj)
        out.append(e)
    return sorted(out)


def _random_int_matrix(rng, p, nrows, ncols, kind):
    """Integer entries carrying random p-powers; "deficient" repeats a
    combination of the first two columns in the last one, "deep" makes one
    row a multiple of p^8, which vanishes below a reduced neff."""
    rows = [[rng.randrange(-30, 31) * p ** rng.choice((0, 0, 1, 2, 3))
             for _ in range(ncols)] for _ in range(nrows)]
    if kind == "deficient" and ncols >= 3:
        a, b = rng.randrange(1, 5), rng.randrange(5)
        for row in rows:
            row[-1] = a * row[0] + b * p * row[1]
    if kind == "deep":
        rows[-1] = [rng.randrange(1, 30) * p ** 8 for _ in range(ncols)]
    return rows


SMITH_SHAPES = [(3, 3), (2, 4), (4, 2), (1, 3), (4, 4)]
SMITH_KINDS = ["full", "deficient", "deep"]


@pytest.mark.parametrize("p, n, N", [(2, 1, 12), (3, 1, 10), (5, 1, 9),
                                     (2, 2, 12), (2, 3, 12), (3, 3, 10),
                                     (3, 4, 10)])
def test_smith_valuations_matches_clearing(p, n, N):
    ctx = make_context(p, n, N)
    rng = random.Random(97 * p + n)
    for shape, kind in itertools.product(SMITH_SHAPES, SMITH_KINDS):
        for _ in range(4):
            rows = _random_int_matrix(rng, p, *shape, kind)
            # at n > 1, spread the entries of one parity of i + j over the
            # Witt coordinates, and keep the others in Z_p
            mat = [[ctx.scalar([x] + [rng.randrange(p) * x * ((i + j) % 2)
                                      for _ in range(n - 1)])
                    for j, x in enumerate(row)] for i, row in enumerate(rows)]
            for neff in (N, N - 1, N // 2):
                assert smith_valuations(ctx, raw(ctx, mat), neff=neff) == \
                    _smith_valuations_reference(ctx, mat, neff=neff), \
                    (shape, kind, neff)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_smith_valuations_matches_sympy(p):
    N = 10
    ctx = make_context(p, 1, N)
    rng = random.Random(31 + p)
    for shape, kind in itertools.product(SMITH_SHAPES, SMITH_KINDS):
        for _ in range(3):
            rows = _random_int_matrix(rng, p, *shape, kind)
            snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
            diag = [snf[i, i] for i in range(min(shape))]
            for neff in (N, N // 2):
                want = sorted(min(sympy.multiplicity(p, d), neff) if d
                              else neff for d in diag)
                got = smith_valuations(ctx, raw(ctx, rows), neff=neff)
                assert got == want, (rows, neff)


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 3), (3, 3)])
def test_invert_matrix_randomized_roundtrip(p, n):
    ctx = make_context(p, n, 16)
    rng = random.Random(5 * p + n)
    r = 3
    positive = 0
    for t in range(12):
        rows = [[ctx.scalar([rng.randrange(p ** 2) for _ in range(n)])
                 for _ in range(r)] for _ in range(r)]
        if t % 2:
            # a p-divisible column forces vdet > 0
            rows = [[ctx.mul_int(row[0], p)] + row[1:] for row in rows]
        try:
            inv, vdet = invert_matrix(ctx, raw(ctx, rows))
        except SingularMap:
            continue
        inv = [[ctx.scalar(x) for x in row] for row in inv]
        positive += vdet > 0
        pv = ctx.scalar(p ** vdet)
        for i in range(r):
            for j in range(r):
                acc = ctx.scalar(0)
                for k in range(r):
                    acc = ctx.add(acc, ctx.mul(rows[i][k], inv[k][j]))
                assert acc == (pv if i == j else ctx.scalar(0))
    assert positive


def test_only_lattices_names_the_echelon_kernel():
    src = pathlib.Path(dieudonne.__file__).parent
    users = sorted(f.name for f in src.glob("*.py")
                   if "_reduce_columns" in f.read_text(encoding="utf-8"))
    assert users == ["lattices.py"]


# The scalar kernels that the raw-coefficient ones replaced, kept as
# oracles on ``WittContext`` coefficient tuples and the context's raw ops
# (apply_raw was a SemilinearMap method; identity was the scalar helper
# of dieudonne.matrix).

def identity(r, zero, one):
    return [[one if i == j else zero for j in range(r)] for i in range(r)]


def _col_is_zero_reference(ctx, col, neff):
    return all(ctx.valuation(x) >= neff for x in col)


def _reduce_columns_reference(ctx, cols, neff, track=False, nrows=None):
    """Column echelon form over the DVR at effective precision neff.

    Returns (ech_cols, pivots, transform, kernel_transform) where
    ``ech_cols``/``pivots`` are in processing order (column t has zeros at
    the pivot rows of columns s < t), ``transform`` maps original columns
    to the echelon ones, and ``kernel_transform`` holds the combinations
    that became effectively zero.  Transforms are None unless ``track``.
    """
    if neff <= 0:
        raise PrecisionExhausted("no effective precision left for reduction")
    m = len(cols)
    work = [list(c) for c in cols]
    r = nrows if nrows is not None else (len(work[0]) if work else 0)
    mul, sub = ctx.mul, ctx.sub
    trans = identity(m, ctx.scalar(0), ctx.scalar(1)) if track else None
    # trans[j] tracks the combination of original columns giving work[j]
    used_rows = set()
    order = []           # indices into work, processing order
    pivots = []          # (row, val) aligned with order
    remaining = list(range(m))
    while remaining:
        best = None
        for j in remaining:
            col = work[j]
            for i in range(r):
                if i in used_rows:
                    continue
                v = ctx.valuation(col[i])
                if v >= neff:
                    continue
                key = (v, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        e, prow, pj = best
        remaining.remove(pj)
        pcol = work[pj]
        # normalize so the pivot entry is exactly p^e
        unit = ctx.divide_p_power(pcol[prow], e)
        uinv = ctx.unit_inverse(unit)
        work[pj] = [mul(x, uinv) for x in pcol]
        if track:
            trans[pj] = [mul(x, uinv) for x in trans[pj]]
        pcol = work[pj]
        for j in remaining:
            col = work[j]
            entry = col[prow]
            if ctx.is_zero(entry):
                continue
            q = ctx.divide_p_power(entry, e)
            work[j] = [sub(col[i], mul(q, pcol[i])) for i in range(r)]
            work[j][prow] = ctx.scalar(0)
            if track:
                tj, tp = trans[j], trans[pj]
                trans[j] = [sub(tj[i], mul(q, tp[i])) for i in range(m)]
        used_rows.add(prow)
        order.append(pj)
        pivots.append((prow, e))
    ech = [work[j] for j in order]
    tr = [trans[j] for j in order] if track else None
    kern = None
    if track:
        kern = []
        for j in remaining:
            if _col_is_zero_reference(ctx, work[j], neff):
                kern.append(trans[j])
    else:
        for j in remaining:
            if not _col_is_zero_reference(ctx, work[j],
                                          neff):  # pragma: no cover
                raise AssertionError("unpivoted nonzero column")
    return ech, pivots, tr, kern


def _back_substitute_reference(ctx, ech, pivots, vec):
    """(coords, residual) with vec = sum_t coords[t] * ech[t] + residual,
    peeled through the echelon in processing order; coords is None when a
    pivot does not divide its entry of the remaining vector."""
    coords = []
    for col, (prow, e) in zip(ech, pivots):
        entry = vec[prow]
        if ctx.valuation(entry) < e:
            return None, vec
        q = ctx.divide_p_power(entry, e)
        coords.append(q)
        vec = [ctx.sub(x, ctx.mul(q, c)) for x, c in zip(vec, col)]
    return coords, vec


def _apply_raw_reference(self, col):
    """Integral part of the action on a column (denominator ignored)."""
    ctx = self.ctx
    if self.twist:
        col = [ctx.frobenius(x, self.twist) for x in col]
    out = []
    for row in self.rows:
        acc = ctx.scalar(0)
        for a, x in zip(row, col):
            if not (ctx.is_zero(a) or ctx.is_zero(x)):
                acc = ctx.add(acc, ctx.mul(a, x))
        out.append(acc)
    return out


KERNEL_RINGS = [(2, 1, 12), (3, 1, 10), (5, 1, 9), (2, 2, 12), (2, 3, 12),
                (3, 3, 10), (3, 4, 10)]
KERNEL_KINDS = SMITH_KINDS + ["p-column"]


def _kernel_inputs(ctx, rng):
    """Seeded column lists with their row counts: full, rank-deficient,
    p^8-row and p-divisible-column matrices of every Smith shape.  At
    n > 1 the entries of one parity of i + j are spread over the Witt
    coordinates and the others stay in Z_p, so both paths of the ring ops
    run inside one elimination."""
    p, n = ctx.p, ctx.n
    for (nrows, ncols), kind in itertools.product(SMITH_SHAPES, KERNEL_KINDS):
        for _ in range(3):
            rows = _random_int_matrix(rng, p, nrows, ncols, kind)
            if kind == "p-column":
                for row in rows:
                    row[0] *= p
            cols = [[ctx.scalar([row[j]] + [rng.randrange(p) * row[j]
                                            * ((i + j) % 2)
                                            for _ in range(n - 1)])
                     for i, row in enumerate(rows)] for j in range(ncols)]
            yield cols, nrows


def combination(ctx, rng, cols, nrows):
    """Row by row, the sum of the columns' entries times seeded integers,
    one drawn per entry."""
    out = []
    for i in range(nrows):
        acc = ctx.scalar(0)
        for c in cols:
            acc = ctx.add(acc, ctx.mul_int(c[i], rng.randrange(-9, 10)))
        out.append(acc)
    return out


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("p, n, N", KERNEL_RINGS)
def test_reduce_columns_matches_reference(p, n, N, track):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(41 * p + n)
    for cols, nrows in _kernel_inputs(ctx, rng):
        for neff in (N, N - 1, N // 2):
            want = _reduce_columns_reference(ctx, cols, neff, track=track,
                                             nrows=nrows)
            got = _reduce_columns(ctx, R.raw_mat(cols), neff, track=track,
                                  nrows=nrows)
            ech, pivots, trans, kern = want
            assert got[0] == R.raw_mat(ech)
            assert got[1] == pivots
            if track:
                assert got[2] == R.raw_mat(trans)
                assert got[3] == R.raw_mat(kern)
            else:
                assert got[2] is None and got[3] is None


@pytest.mark.parametrize("p, n, N", KERNEL_RINGS)
def test_back_substitute_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(43 * p + n)
    outcomes = set()
    for cols, nrows in _kernel_inputs(ctx, rng):
        for neff in (N, N // 2):
            ech, pivots, _, _ = _reduce_columns_reference(ctx, cols, neff,
                                                          nrows=nrows)
            # members, p-multiples of non-members, and arbitrary vectors
            member = combination(ctx, rng, cols, nrows)
            free = [ctx.scalar([rng.randrange(-9, 10) for _ in range(n)])
                    for _ in range(nrows)]
            for vec in (member, [ctx.mul_int(x, p) for x in free], free):
                want_x, want_rest = _back_substitute_reference(
                    ctx, ech, pivots, vec)
                got_x, got_rest = _back_substitute(
                    ctx, R.raw_mat(ech), pivots, R.raw_col(vec))
                assert got_rest == R.raw_col(want_rest)
                if want_x is None:
                    assert got_x is None
                else:
                    assert got_x == R.raw_col(want_x)
                outcomes.add(want_x is None)
    assert outcomes == {False, True}


@pytest.mark.parametrize("p, n, N", KERNEL_RINGS)
def test_apply_raw_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(47 * p + n)
    for twist in range(n):
        for nrows, ncols in SMITH_SHAPES:
            rows = [[ctx.scalar([rng.randrange(-30, 31) * p ** rng.choice(
                (0, 0, 1, N)) for _ in range(n)]) for _ in range(ncols)]
                for _ in range(nrows)]
            f = SemilinearMap(ctx, raw(ctx, rows), twist=twist)
            # the former body read scalar rows
            view = SimpleNamespace(ctx=ctx, twist=f.twist, rows=[
                [ctx.scalar(x) for x in row] for row in f.rows])
            cols = [[ctx.scalar([rng.randrange(-30, 31) * p ** rng.choice(
                (0, 1, N)) for _ in range(n)]) for _ in range(ncols)]
                for _ in range(3)]
            # sigma is applied to nonzero entries only: columns of zeros,
            # and columns with one nonzero entry among zeros
            cols.append([ctx.scalar(0)] * ncols)
            cols.append([ctx.scalar(0)] * (ncols - 1)
                        + [ctx.scalar(list(range(1, n + 1)))])
            for col in cols:
                got = [ctx.scalar(x) for x in f.apply_raw(R.raw_col(col))]
                assert got == _apply_raw_reference(view, col)


# The former membership test of correction_factor, kept as the oracle of
# ``Lattice.contains_modulo``: the sum with p^k times every unit vector,
# echeloned in full.

def _contains_modulo_reference(E, vec, k):
    ctx = E.ctx
    R = ring(ctx)
    pk = R.of_int(ctx.p ** k)
    pkend = Lattice.from_columns(
        ctx, E.ambient, [R.scale(col, pk) for col in R.identity(E.ambient)])
    return lattice_sum(E, pkend).contains_vector(vec)


@pytest.mark.parametrize("p, n, N", [(2, 1, 12), (3, 1, 10), (2, 2, 12),
                                     (2, 3, 12), (3, 3, 10), (3, 4, 10)])
def test_contains_modulo_matches_reference(p, n, N):
    ctx = make_context(p, n, N)
    rng = random.Random(53 * p + n)
    pivot_vals, outcomes = set(), set()
    for cols, nrows in _kernel_inputs(ctx, rng):
        for scale in (0, -1, 1):
            E = Lattice.from_columns(ctx, nrows, raw(ctx, cols), scale=scale)
            pivot_vals.update(min(e, 2) for (_, e) in E.ech_pivots)
            member = combination(ctx, rng, cols, nrows)
            free = [ctx.scalar([rng.randrange(-9, 10) for _ in range(n)])
                    for _ in range(nrows)]
            for vec in (member,
                        [ctx.add(x, ctx.mul_int(y, p ** 2))
                         for x, y in zip(member, free)],
                        [ctx.add(x, ctx.mul_int(y, p))
                         for x, y in zip(member, free)], free):
                vec = raw(ctx, [vec])[0]
                for k in (1, 2):
                    got = E.contains_modulo(vec, k)
                    assert got == _contains_modulo_reference(E, vec, k)
                    outcomes.add(got)
    assert pivot_vals == {0, 1, 2}
    assert outcomes == {False, True}


@pytest.mark.parametrize("name", ["three_slope_rank4", "example_1_7"])
def test_lattices_and_maps_hold_raw_entries(name):
    # one entry format: an int when n = 1, a length-n tuple otherwise
    sess = Session(load_corpus(name))
    for analysis in ("decompose", "ominus", "dual"):
        RUNNERS[analysis](sess)
    n = sess.ctx().n

    def raw(x):
        return type(x) is int if n == 1 else (
            type(x) is tuple and len(x) == n)

    decomp = sess.decomp()
    mats = [sess.crystal().phi.rows]
    mats += [p.rows for p in sess.slope_data().projectors.values()]
    for lat in (decomp.V_plus, decomp.V_minus, decomp.o_minus()):
        assert lat.rank
        mats += [lat.cols, lat.ech]
    assert all(raw(x) for mat in mats for row in mat for x in row)


# ---------------------------------------------------------------------------
# the one precision boost


def test_boosted_tries_the_extras_in_order():
    ctx = make_context(3, 1, 10)
    seen = []

    def run(c):
        seen.append(c.N)
        if c.N < 15:
            raise PrecisionExhausted(f"short at {c.N}")
        return c

    assert boosted(ctx, (0, 2, 5, 9), run) is make_context(3, 1, 15)
    assert seen == [10, 12, 15]
    # extra 0 hands out the context itself
    assert boosted(ctx, (0,), lambda c: c) is ctx


def test_boosted_raises_the_last_failure_as_precision_exhausted():
    ctx = make_context(2, 3, 8)
    seen = []

    def run(c):
        seen.append(c.N)
        raise (SingularMap if c.N < 12 else PrecisionExhausted)(
            f"failed at {c.N}")

    with pytest.raises(PrecisionExhausted, match="^failed at 14$"):
        boosted(ctx, (0, 4, 6), run)
    assert seen == [8, 12, 14]
    # a SingularMap moves on, and after the last extra it is converted
    with pytest.raises(PrecisionExhausted, match="^failed at 9$") as info:
        boosted(ctx, (1,), run)
    assert type(info.value) is PrecisionExhausted
    # any other failure is not a precision failure: it leaves at once
    seen.clear()

    def unstable(c):
        seen.append(c.N)
        raise InclusionViolated("not stable")

    with pytest.raises(InclusionViolated):
        boosted(ctx, (0, 4), unstable)
    assert seen == [8]


def test_standard_lattice_is_the_canonical_identity():
    # built directly, with no elimination, and identical field by field
    # to the canonical lattice of the identity columns
    for p, n in [(5, 1), (2, 3)]:
        ctx = make_context(p, n, 12)
        for rank in (0, 1, 4, 9):
            got = Lattice.standard(ctx, rank)
            want = Lattice.from_columns(ctx, rank, ring(ctx).identity(rank))
            for field in Lattice.__slots__:
                assert getattr(got, field) == getattr(want, field), field
