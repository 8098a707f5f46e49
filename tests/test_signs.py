"""Trace duality and signed-lattice tests."""

import random
from fractions import Fraction

from dieudonne import core, signs
from dieudonne.cli import load_corpus
from dieudonne.matrix import ring
from dieudonne.witt import make_context
from dieudonne.lattices import Lattice
from dieudonne.isocrystal import end_decompose, slope_split
from dieudonne.core import TangentSpace, largest_sub_dieudonne, nu_image
from dieudonne.problems import Session, run
from dieudonne.signs import (
    SlopePairSet, dual_lattice, max_square_zero_size, pair_codim_closed_form,
    quasi_factor_codims, sign_modules, slice_chain, slice_monotone,
    slice_report, strings, trace_frobenius_invariant, trace_of_vectors,
)

from instances import (four_slope_rank8, hom_block_vector, ordinary_rank2,
                       rank6_two_slope, supersingular_rank2,
                       three_slope_rank4)


def setup_instance(ctx, mk):
    X = mk(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    return X, S, E


def test_trace_of_identity():
    ctx = make_context(2, 1, 20)
    r = 2
    R = ring(ctx)
    ident = [ctx.zero] * 4
    ident[0], ident[3] = ctx.one, ctx.one
    ident = R.raw_col(ident)
    assert R.wrap_col([trace_of_vectors(ctx, r, ident, ident)]) == \
        [ctx.scalar(2)]


def test_trace_block_orthogonality():
    # Hom-blocks pair to zero unless the pairs are opposite
    ctx = make_context(2, 1, 20)
    X, S, E = setup_instance(ctx, ordinary_rank2)
    R = ring(ctx)
    x = R.raw_col(hom_block_vector(ctx, 2, 0, 1))   # slope1 -> slope0 block
    y = R.raw_col(hom_block_vector(ctx, 2, 0, 1))
    assert R.wrap_col([trace_of_vectors(ctx, 2, x, y)])[0].is_zero()
    yop = R.raw_col(hom_block_vector(ctx, 2, 1, 0))
    assert R.wrap_col([trace_of_vectors(ctx, 2, x, yop)]) == [ctx.one]


def test_trace_frobenius_invariance_random():
    rng = random.Random(41)
    for ctx, mk in [(make_context(2, 1, 24), ordinary_rank2),
                    (make_context(3, 1, 24), supersingular_rank2),
                    (make_context(2, 3, 40), rank6_two_slope)]:
        X = mk(ctx)
        r = X.rank
        for _ in range(20):
            xv = [ctx.scalar([rng.randrange(ctx.pN) for _ in range(ctx.n)])
                  for _ in range(r * r)]
            yv = [ctx.scalar([rng.randrange(ctx.pN) for _ in range(ctx.n)])
                  for _ in range(r * r)]
            assert trace_frobenius_invariant(X, xv, yv)


def test_slope_pair_set_basics():
    s = [Fraction(0), Fraction(1, 2), Fraction(1)]
    full = SlopePairSet.full(s)
    assert len(full) == 3
    assert not full.is_square_zero  # 1/2 occurs on both sides
    single = SlopePairSet.singleton(Fraction(0), Fraction(1), s)
    assert single.is_square_zero


def test_dual_double_dual_identity():
    ctx = make_context(2, 1, 24)
    X, S, E = setup_instance(ctx, ordinary_rank2)
    Y = SlopePairSet.full(S.slope_list)
    mods = sign_modules(X, E, Y)
    # B(B(O_minus)) through the two reference lattices returns O_minus
    dd = dual_lattice(mods.O_plus_minus, mods.V_minus)
    assert dd.equals(mods.O_minus)


def test_dual_reverses_inclusions():
    ctx = make_context(2, 3, 40)
    X, S, E = setup_instance(ctx, rank6_two_slope)
    Y = SlopePairSet.full(S.slope_list)
    Vp, Vm = E.V_plus, E.V_minus
    Om = largest_sub_dieudonne(Vm, X, mode="negative")
    sub = Lattice.from_columns(
        ctx, 36, [[x * ctx.p for x in c] for c in Om.basis_columns()])
    big = dual_lattice(sub, Vp)
    small = dual_lattice(Om, Vp)
    assert big.contains(small)


def test_sign_modules_ordinary():
    ctx = make_context(2, 1, 24)
    X, S, E = setup_instance(ctx, ordinary_rank2)
    Y = SlopePairSet.full(S.slope_list)
    mods = sign_modules(X, E, Y)
    assert mods.O_minus.rank == 1
    assert mods.O_plus_minus.rank == 1
    assert mods.codims["c_minus"] == 1
    assert mods.V_plus_minus.contains(mods.V_plus)
    assert mods.V_minus_plus.contains(mods.V_minus)


def test_sign_modules_isoclinic_all_zero():
    ctx = make_context(2, 1, 24)
    X, S, E = setup_instance(ctx, supersingular_rank2)
    Y = SlopePairSet([], S.slope_list)
    mods = sign_modules(X, E, Y)
    assert mods.O_minus.rank == 0
    assert mods.O_plus.rank == 0
    assert mods.O_plus_minus.rank == 0
    assert mods.O_minus_plus.rank == 0


def test_sign_modules_rank6_duality_crosscheck():
    # the dual and iterative computations agree (raises on mismatch)
    ctx = make_context(2, 3, 40)
    X, S, E = setup_instance(ctx, rank6_two_slope)
    Y = SlopePairSet.full(S.slope_list)
    mods = sign_modules(X, E, Y)
    assert mods.O_minus.rank == 9
    assert mods.codims["c_minus"] == 3
    assert mods.O_minus.loss <= 4
    assert mods.O_plus_minus.loss <= 4


def test_sign_modules_computed_once_per_pair_set(monkeypatch):
    ctx = make_context(5, 1, 30)
    X, S, E = setup_instance(ctx, three_slope_rank4)
    first = sign_modules(X, E, SlopePairSet.full(S.slope_list))
    calls = []
    real = signs.dual_lattice

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(signs, "dual_lattice", counted)
    # an equal pair set, built anew, reuses the first result
    again = sign_modules(X, E, SlopePairSet.full(S.slope_list))
    assert again is first
    assert calls == []
    # a different pair set still runs its own duality cross-checks
    a, b = S.slope_list[:2]
    sign_modules(X, E, SlopePairSet.singleton(a, b, S.slope_list))
    assert calls


def test_full_pair_set_reuses_the_decomposition(monkeypatch):
    # the full pair set's V_minus is the decomposition's, so its O_minus is
    # the decomposition's o_minus(): one refinement serves both analyses
    spec = load_corpus("three_slope_rank4")
    V_minus = Session(spec).decomp().V_minus
    calls = []
    real = core.largest_sub_dieudonne

    def counted(V, crystal, mode="negative", carrier=None):
        calls.append((V, mode))
        return real(V, crystal, mode=mode, carrier=carrier)
    monkeypatch.setattr(core, "largest_sub_dieudonne", counted)
    monkeypatch.setattr(signs, "largest_sub_dieudonne", counted)
    report = run(spec, ["ominus", "traverso"])
    assert report["all_ok"]
    assert sum(1 for V, mode in calls
               if mode == "negative" and V.equals(V_minus)) == 1


def test_pair_codims_closed_form():
    ctx = make_context(2, 1, 24)
    X, S, E = setup_instance(ctx, ordinary_rank2)
    assert pair_codim_closed_form(S, Fraction(0), Fraction(1)) == 1
    ctx6 = make_context(2, 3, 40)
    X6, S6, _ = setup_instance(ctx6, rank6_two_slope)
    assert pair_codim_closed_form(
        S6, Fraction(1, 3), Fraction(2, 3)) == 3


def test_quasi_factor_codims_three_slopes():
    # slopes {0, 1/2, 1} with multiplicities (1, 2, 1):
    # 1*2*(1/2) + 1*1*1 + 2*1*(1/2) = 3
    ctx = make_context(5, 1, 30)
    X, S, E = setup_instance(ctx, three_slope_rank4)
    table, total = quasi_factor_codims(X, S, E)
    assert total == 3
    assert table[(Fraction(0), Fraction(1, 2))] == 1
    assert table[(Fraction(0), Fraction(1))] == 1
    assert table[(Fraction(1, 2), Fraction(1))] == 1


def test_quasi_factor_codims_rank6():
    ctx = make_context(2, 3, 40)
    X, S, E = setup_instance(ctx, rank6_two_slope)
    table, total = quasi_factor_codims(X, S, E)
    assert total == 3


def test_strings():
    ctx = make_context(5, 1, 30)
    X, S, E = setup_instance(ctx, three_slope_rank4)
    lower, upper = strings(S)
    a0, ah, a1 = Fraction(0), Fraction(1, 2), Fraction(1)
    assert lower[a1] == [(a0, a1), (ah, a1)]
    assert upper[a0] == [(a0, ah), (a0, a1)]
    assert lower[a0] == []


def test_slice_chain_cardinalities():
    for m in range(2, 7):
        slopes = [Fraction(i, m) for i in range(m)]
        for level in range(1, m):
            Y = slice_chain(slopes, level)
            assert len(Y) == level * (m - level)
            assert Y.is_square_zero
        sizes = [level * (m - level) for level in range(1, m)]
        assert max(sizes) == max_square_zero_size(m)


def test_slice_report_four_slopes():
    ctx = make_context(5, 1, 40)
    X, S, E = setup_instance(ctx, four_slope_rank8)
    T = TangentSpace(X)
    s = S.slope_list
    # the shaped set {(a3,a4), (a1,a4), (a1,a2)}
    Y = SlopePairSet([(s[2], s[3]), (s[0], s[3]), (s[0], s[1])], s)
    assert Y.is_square_zero
    report, mods = slice_report(X, S, E, Y, tangent=T)
    assert report["square_zero"]
    assert report["square_vanishes"]
    assert report["c_minus"] == report["tangent_dimension"]


def test_slice_monotonicity_four_slopes():
    ctx = make_context(5, 1, 40)
    X, S, E = setup_instance(ctx, four_slope_rank8)
    s = S.slope_list
    Y = SlopePairSet([(s[2], s[3]), (s[0], s[3]), (s[0], s[1])], s)
    for Y1 in Y.subsets():
        assert slice_monotone(X, E, Y, Y1)


def test_split_sum_decomposition():
    # split module: O_minus over Y is the direct sum of its quasi-factors
    ctx = make_context(5, 1, 40)
    X, S, E = setup_instance(ctx, three_slope_rank4)
    from dieudonne.lattices import lattice_sum
    s = S.slope_list
    Y = SlopePairSet.full(s)
    mods = sign_modules(X, E, Y)
    acc = None
    for (a, b) in Y.pairs:
        m1 = sign_modules(X, E, SlopePairSet.singleton(a, b, s))
        acc = m1.O_minus if acc is None else lattice_sum(acc, m1.O_minus)
    assert acc.equals(mods.O_minus)


def test_nu_dimension_matches_codim_for_slices():
    ctx = make_context(5, 1, 40)
    X, S, E = setup_instance(ctx, three_slope_rank4)
    T = TangentSpace(X)
    s = S.slope_list
    for (a, b) in SlopePairSet.full(s).pairs:
        mods = sign_modules(X, E, SlopePairSet.singleton(a, b, s))
        dim, _ = nu_image(mods.O_minus, T)
        assert dim == mods.codims["c_minus"]
