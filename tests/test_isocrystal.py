"""Newton slope and slope-decomposition tests.

The rank-6 two-slope instance used throughout (cyclic permutation action
with p-power exponents (1,0,0) and (1,1,0)) has slopes {1/3, 2/3} with
multiplicity three each.
"""

import random
from fractions import Fraction

import sympy

from dieudonne.witt import make_context
from dieudonne.matrix import ring
from dieudonne.isocrystal import (
    FIsocrystal, charpoly, dim_codim, end_decompose, end_frobenius,
    newton_polygon, newton_slopes, slope_split,
)
from dieudonne.lattices import restrict_map


def ordinary_rank2(ctx):
    p = ctx.p
    return FIsocrystal.from_int_matrix(ctx, [[1, 0], [0, p]])


def supersingular_rank2(ctx):
    p = ctx.p
    return FIsocrystal.from_int_matrix(ctx, [[0, p], [1, 0]])


def rank6_two_slope(ctx):
    """phi(e_i) = p^{a_i} e_{s(i)}, phi(f_j) = p^{b_j} f_{s(j)} with
    s = (1 2 3), a = (1,0,0), b = (1,1,0)."""
    p = ctx.p
    rows = [[0] * 6 for _ in range(6)]
    a = [1, 0, 0]
    b = [1, 1, 0]
    for j in range(3):
        rows[(j + 1) % 3][j] = p ** a[j]
        rows[3 + (j + 1) % 3][3 + j] = p ** b[j]
    return FIsocrystal.from_int_matrix(ctx, rows)


def three_slope_rank4(ctx):
    """slopes {0, 1/2, 1} with multiplicities (1, 2, 1)."""
    p = ctx.p
    rows = [[0] * 4 for _ in range(4)]
    rows[0][0] = 1
    rows[2][1] = 1
    rows[1][2] = p
    rows[3][3] = p
    return FIsocrystal.from_int_matrix(ctx, rows)


def test_charpoly_against_sympy():
    ctx = make_context(3, 1, 20)
    R = ring(ctx)
    rng = random.Random(2)
    for r in (2, 3, 4):
        for _ in range(6):
            rows = [[rng.randrange(-9, 10) for _ in range(r)]
                    for _ in range(r)]
            got = charpoly(ctx, R.raw_mat(rows))
            want = sympy.Matrix(rows).charpoly().all_coeffs()  # high first
            want = list(reversed(want))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g == R.of_int(int(w))


def test_newton_polygon_simple():
    ctx = make_context(2, 1, 16)
    # (x - 1)(x - p): valuations {0, 1}
    R = ring(ctx)
    coeffs = R.raw_col([2, -3, 1])
    np_ = newton_polygon(ctx, coeffs)
    assert np_ == [(Fraction(0), 1), (Fraction(1), 1)]
    # x^3 - p: single segment of valuation 1/3
    coeffs = R.raw_col([-2, 0, 0, 1])
    assert newton_polygon(ctx, coeffs) == [(Fraction(1, 3), 3)]


def test_ordinary_slopes():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    assert newton_slopes(X) == [(Fraction(0), 1), (Fraction(1), 1)]
    assert dim_codim(X) == (1, 1)


def test_supersingular_slopes():
    ctx = make_context(2, 1, 20)
    X = supersingular_rank2(ctx)
    assert newton_slopes(X) == [(Fraction(1, 2), 2)]
    assert dim_codim(X) == (1, 1)


def test_rank6_slopes_and_dims():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    assert newton_slopes(X) == [(Fraction(1, 3), 3), (Fraction(2, 3), 3)]
    assert dim_codim(X) == (3, 3)


def test_newton_endpoint_is_dimension():
    # sum over slopes of multiplicity * slope = dimension d
    for ctx, mk in [
        (make_context(2, 1, 20), ordinary_rank2),
        (make_context(3, 1, 20), supersingular_rank2),
        (make_context(2, 3, 40), rank6_two_slope),
        (make_context(5, 1, 24), three_slope_rank4),
    ]:
        X = mk(ctx)
        _, d = dim_codim(X)
        total = sum(a * m for (a, m) in newton_slopes(X))
        assert total == d


def test_slope_split_ordinary():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    assert S.is_split
    assert [m for (_, m) in S.slopes] == [1, 1]
    c0 = S.components[Fraction(0)]
    assert c0.rank == 1 and c0.contains_vector([ctx.one, ctx.zero])
    c1 = S.components[Fraction(1)]
    assert c1.rank == 1 and c1.contains_vector([ctx.zero, ctx.one])


def test_slope_split_isoclinic_is_identity():
    ctx = make_context(2, 1, 20)
    X = supersingular_rank2(ctx)
    S = slope_split(X)
    assert len(S.slopes) == 1
    assert S.components[Fraction(1, 2)].equals(X.M)


def test_slope_split_rank6():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    assert S.is_split
    lo = S.components[Fraction(1, 3)]
    hi = S.components[Fraction(2, 3)]
    assert lo.rank == 3 and hi.rank == 3
    e0 = [ctx.one] + [ctx.zero] * 5
    f0 = [ctx.zero] * 3 + [ctx.one] + [ctx.zero] * 2
    assert lo.contains_vector(e0)
    assert hi.contains_vector(f0)


def test_slope_split_three_slopes():
    ctx = make_context(5, 1, 24)
    X = three_slope_rank4(ctx)
    S = slope_split(X)
    assert [a for (a, _) in S.slopes] == [0, Fraction(1, 2), 1]
    assert [m for (_, m) in S.slopes] == [1, 2, 1]
    assert S.is_split


def test_slope_split_conjugated_dense():
    # a unimodular change of basis must not change slopes or splitness
    ctx = make_context(2, 1, 24)
    p = 2
    u = [[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    uinv = sympy.Matrix(u) ** -1
    a = sympy.Matrix([[1, 0, 0, 0], [0, 0, p, 0], [0, 1, 0, 0],
                      [0, 0, 0, p]])
    conj = sympy.Matrix(u) * a * uinv
    X = FIsocrystal.from_int_matrix(
        ctx, [[int(conj[i, j]) for j in range(4)] for i in range(4)])
    S = slope_split(X)
    assert [(a_, m) for (a_, m) in S.slopes] == [
        (Fraction(0), 1), (Fraction(1, 2), 2), (Fraction(1), 1)]
    assert S.is_split


def test_component_slopes_recovers_single_slope():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    for (alpha, mult) in S.slopes:
        sub = restrict_map(X.phi, S.components[alpha])
        assert newton_slopes(FIsocrystal(ctx, sub)) == [(alpha, mult)]


def test_end_decompose_ordinary():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    assert E.V_minus.rank == 1
    assert E.V_plus.rank == 1
    # the negative part is the Hom(line_1, line_0) coordinate x_{01}
    vec = [ctx.zero] * 4
    vec[0 * 2 + 1] = ctx.one
    assert E.V_minus.contains_vector(vec)


def test_end_decompose_isoclinic():
    ctx = make_context(2, 1, 20)
    X = supersingular_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    assert E.V_minus.rank == 0
    assert E.V_plus.rank == 0


def test_end_decompose_rank6():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    assert E.V_minus.rank == 9
    assert E.V_plus.rank == 9
    # V_minus is exactly the Hom(second block, first block) coordinates
    for i in range(3):
        for j in range(3, 6):
            vec = [ctx.zero] * 36
            vec[i * 6 + j] = ctx.one
            assert E.V_minus.contains_vector(vec)


def test_end_slopes_are_pairwise_differences():
    ctx = make_context(2, 1, 22)
    X = ordinary_rank2(ctx)
    endX = FIsocrystal(ctx, end_frobenius(X))
    got = dict(newton_slopes(endX))
    assert got == {Fraction(-1): 1, Fraction(0): 2, Fraction(1): 1}


def test_end_slopes_pairwise_differences_rank6():
    # the endomorphism crystal of the rank-6 instance has slopes equal to
    # all pairwise slope differences, with product multiplicities
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    endX = FIsocrystal(ctx, end_frobenius(X))
    got = dict(newton_slopes(endX))
    S = slope_split(X)
    want = {}
    for (a, ra) in S.slopes:
        for (b, rb) in S.slopes:
            want[b - a] = want.get(b - a, 0) + ra * rb
    assert got == want


def test_slopes_are_computed_once_per_crystal(monkeypatch):
    # report-all reads the slopes in `slopes`, `slope_split` and
    # `trivialize`: one charpoly for the slopes, one for the split
    from dieudonne import isocrystal, problems
    from dieudonne.cli import load_corpus
    calls = []
    real = isocrystal.charpoly

    def counted(ctx, rows):
        calls.append(len(rows))
        return real(ctx, rows)

    monkeypatch.setattr(isocrystal, "charpoly", counted)
    report = problems.run(load_corpus("four_slope_rank8"),
                          problems.ANALYSES, 0)
    assert report["all_ok"]
    assert calls == [8, 8]
    # a boosted copy of the crystal computes its own
    X = ordinary_rank2(make_context(2, 1, 20))
    assert newton_slopes(X) is newton_slopes(X)
    assert newton_slopes(X.at_precision(30)) == newton_slopes(X)
    assert len(calls) == 4
