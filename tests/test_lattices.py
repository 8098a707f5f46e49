"""Lattice algebra tests, cross-checked against integer-arithmetic oracles
(sympy normal forms, residue enumeration) that share no code with the
library implementation."""

import itertools
import random

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form

from dieudonne.witt import make_context
from dieudonne.lattices import (
    Lattice, SemilinearMap, intersect, invert_matrix, lattice_sum,
    mod_p_dimension, restrict_map, saturate,
)
from dieudonne.errors import InclusionViolated, SingularMap


def int_lattice(ctx, cols):
    return Lattice.from_int_columns(ctx, len(cols[0]), cols)


def recanonicalize(L):
    """Canonical form of a lattice rebuilt from its own basis."""
    return Lattice.from_columns(L.ctx, L.ambient, L.basis_columns(),
                                scale=L.scale, loss=L.loss)


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
    assert L.contains_vector([ctx.scalar(1), ctx.scalar(0)])


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
    pL = Lattice.from_columns(ctx, 2, [[x * 3 for x in c]
                                       for c in L.basis_columns()])
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
        got_pts = enumerate_lattice_mod(
            [[x.c[0] for x in col] for col in got.basis_columns()], p, k)
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
    assert S.contains_vector([ctx.scalar(1), ctx.scalar(2)])
    assert S.rank == 1


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
    phi = SemilinearMap.from_int_rows(ctx, [[1, 0], [0, 2]], twist=1)
    img = phi(L)
    assert img.equals(int_lattice(ctx, [[1, 0], [0, 2]]))
    pre = phi.inverse()(img)
    assert pre.contains(L) and L.contains(pre)


def test_preimage_of_singular_map_raises():
    ctx = make_context(2, 1, 10)
    f = SemilinearMap.from_int_rows(ctx, [[1, 1], [1, 1]])
    with pytest.raises(SingularMap):
        f.inverse()(Lattice.standard(ctx, 2))


def test_apply_compose_consistency():
    ctx = make_context(2, 2, 12)
    rng = random.Random(3)
    g = ctx.generator
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
    inv, vdet = invert_matrix(ctx, rows)
    assert vdet == 2
    # A * inv = p^vdet * I
    for i in range(2):
        for j in range(2):
            acc = ctx.zero
            for k in range(2):
                acc = acc + rows[i][k] * inv[k][j]
            want = ctx.scalar(4) if i == j else ctx.zero
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
    phi = SemilinearMap.from_int_rows(ctx, [[1, 0], [0, 2]], twist=1)
    L = int_lattice(ctx, [[1, 0], [0, 2]])
    r = restrict_map(phi, L)
    # phi restricted to its own image is still integral
    assert r.nrows == 2
    sub = int_lattice(ctx, [[1, 0]])
    r2 = restrict_map(phi, sub)
    assert r2.rows[0][0] == ctx.one


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
    L = Lattice.from_columns(ctx, 2, [[ctx.one, ctx.zero]], scale=1)
    # p^{-1} e1: contains e1 but not vice versa
    E1 = int_lattice(ctx, [[1, 0]])
    assert L.contains(E1)
    assert not E1.contains(L)
    assert lattice_sum(L, E1).equals(L)
    assert intersect(L, E1).equals(E1)
