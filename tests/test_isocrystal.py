"""Newton slope and slope-decomposition tests.

The rank-6 two-slope instance used throughout (cyclic permutation action
with p-power exponents (1,0,0) and (1,1,0)) has slopes {1/3, 2/3} with
multiplicity three each.
"""

import random
from fractions import Fraction

import pytest
import sympy

from dieudonne import isocrystal
from dieudonne.errors import PrecisionExhausted, SingularMap
from dieudonne.witt import make_context
from dieudonne.matrix import ring
from dieudonne.isocrystal import (
    FIsocrystal, charpoly, dim_codim, end_decompose, end_frobenius,
    newton_polygon, newton_slopes, slope_split, _maps_equal,
)
from dieudonne.lattices import (Lattice, SemilinearMap, lattice_sum,
                                restrict_map, smith_valuations)

from instances import (conjugated_instance, four_slope_rank8, non_split_draw,
                       non_split_rank6, three_slope_rank4)


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


def test_projectors_agree_with_a_run_at_twice_the_precision():
    # the problem's integers define phi: a boost lifts them, not their
    # residues mod p^N, which for a negative entry are another matrix.
    # Each projector published at N = 48 must then agree with the one of
    # the same integers at N = 96 modulo p^(48 - loss).  Lifting the
    # residues broke this on 12 of these 30 dense draws.
    low, high = random.Random(424242), random.Random(424242)
    for k in range(30):
        X = conjugated_instance(low)
        Y = conjugated_instance(high, precision=96)
        assert X.source == Y.source, k
        got, wide = slope_split(X), slope_split(Y)
        assert sorted(got.projectors) == sorted(wide.projectors), k
        for a, e in got.projectors.items():
            f = wide.projectors[a]
            # the N = 96 projector reduced to N = 48, exact there
            g = SemilinearMap(X.ctx, f.rows, twist=f.twist,
                              denominator=f.denominator)
            assert _maps_equal(e, g), (k, a)


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
    E = end_decompose(S)
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
    E = end_decompose(S)
    assert E.V_minus.rank == 0
    assert E.V_plus.rank == 0


def test_end_decompose_rank6():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
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
    assert newton_slopes(X.at_precision(make_context(2, 1, 30))) == \
        newton_slopes(X)
    assert len(calls) == 4
    # at its own precision the copy is the crystal itself
    assert X.at_precision(X.ctx) is X


def test_non_split_recipe_draws_a_non_split_module():
    # U diag(1, 1, 1, 1, p, p) V at its documented seed: a Dieudonne
    # module (elementary divisors 1 and p) with the slopes of
    # non_split_rank6 that, like it, does not split into its slope parts
    for X in (non_split_draw(), non_split_rank6(make_context(2, 1, 32))):
        assert smith_valuations(X.ctx, X.phi.rows) == [0, 0, 0, 0, 1, 1]
        sd = slope_split(X)
        assert sd.slopes == [(Fraction(0), 1), (Fraction(1, 3), 3),
                             (Fraction(1, 2), 2)]
        assert not sd.is_split


def test_is_split_is_the_component_sum_test():
    # the component bases exist exactly when the slope components sum to M
    crystals = [mk(make_context(p, 1, 30)) for p in (2, 3, 5)
                for mk in (ordinary_rank2, rank6_two_slope,
                           three_slope_rank4, four_slope_rank8)]
    crystals += [non_split_rank6(make_context(2, 1, 32)), non_split_draw()]
    found = []
    for X in crystals:
        sd = slope_split(X)
        total = Lattice.zero(X.ctx, X.rank)
        for comp in sd.components.values():
            total = lattice_sum(total, comp)
        assert sd.is_split == total.equals(X.M)
        found.append(sd.is_split)
    assert found == [True] * 12 + [False, False]


# ---------------------------------------------------------------------------
# precision boosts: each schedule, on the attempts no corpus entry reaches


def test_newton_slopes_boost_recovers_the_slopes(monkeypatch):
    # at N = 9 the hull of the n = 3 rank-6 instance is not resolved; one
    # budget B = r n + 8 = 26 of guard digits reads the slopes of N = 40,
    # and from N = 10 on the first attempt suffices
    want = newton_slopes(rank6_two_slope(make_context(2, 3, 40)))
    seen = []
    real = isocrystal.charpoly

    def recorded(ctx, rows):
        seen.append(ctx.N)
        return real(ctx, rows)

    monkeypatch.setattr(isocrystal, "charpoly", recorded)
    assert newton_slopes(rank6_two_slope(make_context(2, 3, 9))) == want
    assert seen == [9, 35]
    seen.clear()
    assert newton_slopes(rank6_two_slope(make_context(2, 3, 10))) == want
    assert seen == [10]


def test_newton_slopes_give_up_after_two_budgets(monkeypatch):
    seen = []

    def unresolved(ctx, coeffs, loss=0):
        seen.append(ctx.N)
        raise PrecisionExhausted(f"hull unresolved at {ctx.N}")

    monkeypatch.setattr(isocrystal, "newton_polygon", unresolved)
    with pytest.raises(PrecisionExhausted, match="^hull unresolved at 92$"):
        newton_slopes(rank6_two_slope(make_context(2, 3, 40)))
    assert seen == [40, 66, 92]


def _split_state(sd):
    return (sd.slopes, sd.is_split,
            {a: (e.rows, e.denominator, e.loss)
             for a, e in sd.projectors.items()},
            {a: (c.cols, c.scale, c.loss) for a, c in sd.components.items()})


def test_slope_split_retries_with_doubled_guard_digits(monkeypatch):
    # no instance needs a second attempt, so the first one is made to fail
    ctx = make_context(2, 1, 40)
    want = _split_state(slope_split(rank6_two_slope(ctx)))
    seen = []
    real = isocrystal._slope_split_at

    def first_fails(crystal, b, bctx):
        seen.append(bctx.N)
        if len(seen) == 1:
            raise PrecisionExhausted("first attempt")
        return real(crystal, b, bctx)

    monkeypatch.setattr(isocrystal, "_slope_split_at", first_fails)
    assert _split_state(slope_split(rank6_two_slope(ctx))) == want
    budget = seen[0] - ctx.N
    assert budget > 0 and seen == [ctx.N + budget, ctx.N + 2 * budget]

    # every attempt fails: the third failure is reported, a SingularMap
    # on the way moving on like a precision failure
    seen.clear()

    def failing(crystal, b, bctx):
        seen.append(bctx.N)
        raise (SingularMap if len(seen) == 2 else PrecisionExhausted)(
            f"attempt {len(seen)}")

    monkeypatch.setattr(isocrystal, "_slope_split_at", failing)
    with pytest.raises(PrecisionExhausted, match="^attempt 3$"):
        slope_split(rank6_two_slope(ctx))
    assert seen == [ctx.N + k * budget for k in (1, 2, 4)]
