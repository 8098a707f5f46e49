"""Trace duality and signed-lattice tests."""

import json
import random
from fractions import Fraction

import pytest

from dieudonne import core, signs
from dieudonne.cli import emit_spec, load_corpus
from dieudonne.errors import PrecisionExhausted
from dieudonne.matrix import ring
from dieudonne.witt import make_context
from dieudonne.lattices import Lattice
from dieudonne.isocrystal import end_decompose, end_frobenius, slope_split
from dieudonne.core import TangentSpace, largest_sub_dieudonne, nu_image
from dieudonne.problems import Session, parse_dict, run
from dieudonne.signs import (
    SlopePairSet, dual_lattice, max_square_zero_size, pair_codim_closed_form,
    quasi_factor_codims, sign_modules, slice_chain, slice_monotone,
    slice_report, strings, trace_of_vectors,
)

from instances import (four_slope_rank8, hom_block_vector, non_split_rank6,
                       ordinary_rank2, pair_subsets, rank6_two_slope, raw,
                       supersingular_rank2, three_slope_rank4)


def setup_instance(ctx, mk):
    X = mk(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    return X, S, E


def test_trace_of_identity():
    ctx = make_context(2, 1, 20)
    r = 2
    R = ring(ctx)
    ident = R.raw_col([1, 0, 0, 1])
    assert trace_of_vectors(ctx, r, ident, ident) == R.of_int(2)


def test_trace_block_orthogonality():
    # Hom-blocks pair to zero unless the pairs are opposite
    ctx = make_context(2, 1, 20)
    X, S, E = setup_instance(ctx, ordinary_rank2)
    R = ring(ctx)
    x = R.raw_col(hom_block_vector(2, 0, 1))   # slope1 -> slope0 block
    y = R.raw_col(hom_block_vector(2, 0, 1))
    assert trace_of_vectors(ctx, 2, x, y) == R.zero
    yop = R.raw_col(hom_block_vector(2, 1, 0))
    assert trace_of_vectors(ctx, 2, x, yop) == R.one


def test_trace_frobenius_invariance_random():
    rng = random.Random(41)
    for ctx, mk in [(make_context(2, 1, 24), ordinary_rank2),
                    (make_context(3, 1, 24), supersingular_rank2),
                    (make_context(2, 3, 40), rank6_two_slope)]:
        X = mk(ctx)
        r = X.rank
        R = ring(ctx)
        fwd = end_frobenius(X)
        for _ in range(20):
            xv = [ctx.scalar([rng.randrange(ctx.pN) for _ in range(ctx.n)])
                  for _ in range(r * r)]
            yv = [ctx.scalar([rng.randrange(ctx.pN) for _ in range(ctx.n)])
                  for _ in range(r * r)]
            # Tr(phi x, phi y) = sigma(Tr(x, y)), with both conjugation
            # denominators cleared
            xv, yv = R.raw_col(xv), R.raw_col(yv)
            lhs = trace_of_vectors(ctx, r, fwd.apply_raw(xv),
                                   fwd.apply_raw(yv))
            rhs = R.frob(trace_of_vectors(ctx, r, xv, yv), 1)
            assert [lhs] == R.scale(
                [rhs], R.of_int(ctx.p ** (2 * fwd.denominator)))


def test_slope_pair_set_basics():
    s = [Fraction(0), Fraction(1, 2), Fraction(1)]
    full = SlopePairSet.full(s)
    assert len(full.pairs) == 3
    assert not full.is_square_zero  # 1/2 occurs on both sides
    single = SlopePairSet([(Fraction(0), Fraction(1))], s)
    assert single.is_square_zero


def test_dual_double_dual_identity():
    ctx = make_context(2, 1, 24)
    X, S, E = setup_instance(ctx, ordinary_rank2)
    Y = SlopePairSet.full(S.slope_list)
    mods = sign_modules(E, Y)
    # B(B(O_minus)) through the two reference lattices returns O_minus
    dd = dual_lattice(mods.O_plus_minus, mods.V_minus)
    assert dd.equals(mods.O_minus)


def test_dual_reverses_inclusions():
    ctx = make_context(2, 3, 40)
    X, S, E = setup_instance(ctx, rank6_two_slope)
    Y = SlopePairSet.full(S.slope_list)
    Vp, Vm = E.V_plus, E.V_minus
    Om = largest_sub_dieudonne(Vm, E.carrier("minus"))
    sub = Lattice.from_columns(
        ctx, 36, [[ctx.mul_int(x, ctx.p) for x in c] for c in Om.cols])
    big = dual_lattice(sub, Vp)
    small = dual_lattice(Om, Vp)
    assert big.contains(small)


def test_sign_modules_ordinary():
    ctx = make_context(2, 1, 24)
    X, S, E = setup_instance(ctx, ordinary_rank2)
    Y = SlopePairSet.full(S.slope_list)
    mods = sign_modules(E, Y)
    assert mods.O_minus.rank == 1
    assert mods.O_plus_minus.rank == 1
    assert E.c_minus(Y.pairs) == 1
    assert mods.V_plus_minus.contains(mods.V_plus)
    assert mods.V_minus_plus.contains(mods.V_minus)


def test_sign_modules_isoclinic_all_zero():
    ctx = make_context(2, 1, 24)
    X, S, E = setup_instance(ctx, supersingular_rank2)
    Y = SlopePairSet([], S.slope_list)
    mods = sign_modules(E, Y)
    assert mods.O_minus.rank == 0
    assert mods.O_plus.rank == 0
    assert mods.O_plus_minus.rank == 0
    assert mods.O_minus_plus.rank == 0


def test_sign_modules_rank6_duality_crosscheck():
    # the dual and iterative computations agree (raises on mismatch)
    ctx = make_context(2, 3, 40)
    X, S, E = setup_instance(ctx, rank6_two_slope)
    Y = SlopePairSet.full(S.slope_list)
    mods = sign_modules(E, Y)
    assert mods.O_minus.rank == 9
    assert E.c_minus(Y.pairs) == 3
    assert mods.O_minus.loss <= 4
    assert mods.O_plus_minus.loss <= 4


def test_sign_modules_computed_once_per_pair_set(monkeypatch):
    # each pair set is computed once per decomposition, and each pair's
    # duality cross-checks run once, however many pair sets contain it
    ctx = make_context(5, 1, 30)
    X, S, E = setup_instance(ctx, three_slope_rank4)
    full = SlopePairSet.full(S.slope_list)
    duals, bodies = [], []
    real_dual, real_body = signs.dual_lattice, signs._sign_modules

    def counted_dual(*args):
        duals.append(args)
        return real_dual(*args)

    def counted_body(decomp, Y):
        bodies.append(Y.pairs)
        return real_body(decomp, Y)
    monkeypatch.setattr(signs, "dual_lattice", counted_dual)
    monkeypatch.setattr(signs, "_sign_modules", counted_body)
    first = sign_modules(E, full)
    for Y in pair_subsets(full):
        sign_modules(E, Y)
    # an equal pair set, built anew, reuses the first result
    assert sign_modules(E, SlopePairSet.full(S.slope_list)) is first
    assert sorted(bodies) == sorted(Y.pairs for Y in pair_subsets(full))
    # V_plus_minus, V_minus_plus and the duals of O_minus and O_plus, once
    # for each of the three pairs
    assert len(duals) == 4 * len(full.pairs)


def test_full_pair_set_reuses_the_decomposition(monkeypatch):
    # the full pair set's V_minus is the decomposition's, so its O_minus is
    # the decomposition's o_minus(): one refinement serves both analyses
    spec = load_corpus("three_slope_rank4")
    V_minus = Session(spec).decomp().V_minus
    calls = []
    real = core.largest_sub_dieudonne

    def counted(V, carrier):
        calls.append((V, carrier.sign))
        return real(V, carrier)
    monkeypatch.setattr(core, "largest_sub_dieudonne", counted)
    monkeypatch.setattr(signs, "largest_sub_dieudonne", counted)
    report = run(spec, ["ominus", "traverso"])
    assert report["all_ok"]
    assert sum(1 for V, sign in calls
               if sign == "minus" and V.equals(V_minus)) == 1


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
    table, total = quasi_factor_codims(E)
    assert total == 3
    assert table[(Fraction(0), Fraction(1, 2))] == 1
    assert table[(Fraction(0), Fraction(1))] == 1
    assert table[(Fraction(1, 2), Fraction(1))] == 1


def test_quasi_factor_codims_rank6():
    ctx = make_context(2, 3, 40)
    X, S, E = setup_instance(ctx, rank6_two_slope)
    table, total = quasi_factor_codims(E)
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
            assert len(Y.pairs) == level * (m - level)
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
    report = slice_report(E, Y, tangent=T)
    assert report["square_zero"]
    assert report["square_vanishes"]
    assert report["c_minus"] == report["tangent_dimension"]


def test_slice_monotonicity_four_slopes():
    ctx = make_context(5, 1, 40)
    X, S, E = setup_instance(ctx, four_slope_rank8)
    s = S.slope_list
    Y = SlopePairSet([(s[2], s[3]), (s[0], s[3]), (s[0], s[1])], s)
    for Y1 in pair_subsets(Y):
        assert slice_monotone(E, Y, Y1)


def test_slice_monotonicity_non_split():
    # O_minus of a pair set carries loss 1 or 2 here, and each check
    # intersects lattices of different losses
    ctx = make_context(2, 1, 32)
    X, S, E = setup_instance(ctx, non_split_rank6)
    assert not S.is_split
    Y = SlopePairSet.full(S.slope_list)
    assert len(Y.pairs) == 3
    for Y1 in pair_subsets(Y):
        assert slice_monotone(E, Y, Y1), Y1.pairs


def test_split_sum_decomposition():
    # split module: O_minus over Y is the direct sum of its quasi-factors
    ctx = make_context(5, 1, 40)
    X, S, E = setup_instance(ctx, three_slope_rank4)
    from dieudonne.lattices import lattice_sum
    Y = SlopePairSet.full(S.slope_list)
    acc = lattice_sum(*(E.o_minus((pair,)) for pair in Y.pairs))
    assert acc.equals(E.o_minus(Y.pairs))


def test_nu_dimension_matches_codim_for_slices():
    ctx = make_context(5, 1, 40)
    X, S, E = setup_instance(ctx, three_slope_rank4)
    T = TangentSpace(X)
    s = S.slope_list
    for pair in SlopePairSet.full(s).pairs:
        dim, _ = nu_image(E.o_minus((pair,)), T)
        assert dim == E.c_minus((pair,))


def test_boosted_dual_is_the_dual_at_a_larger_precision(monkeypatch):
    # example_1_7 at N = 3: the pairing of V_minus with V_plus has depth
    # K = 1, too deep for three digits, so the dual is recomputed with
    # 2K + 8 extra digits; published at N it is the dual that the same
    # integer bases have at N = 40
    doc = json.loads(emit_spec(load_corpus("example_1_7")))
    sess = Session(parse_dict(dict(doc, precision=3)))
    D, ctx = sess.decomp(), sess.ctx()
    extras = []
    real = signs.boosted

    def recorded(c, schedule, attempt):
        extras.append(schedule)
        return real(c, schedule, attempt)

    monkeypatch.setattr(signs, "boosted", recorded)
    got = dual_lattice(D.V_minus, D.V_plus)
    assert extras == [(10,)]
    big = make_context(ctx.p, ctx.n, 40)

    def lifted(V):
        return Lattice.from_columns(big, V.ambient, V.cols, scale=V.scale,
                                    loss=V.loss)

    wide = dual_lattice(lifted(D.V_minus), lifted(D.V_plus))
    assert extras == [(10,)]
    want = Lattice.from_columns(ctx, wide.ambient, raw(ctx, wide.cols),
                                scale=wide.scale, loss=wide.loss)
    assert got.ctx is ctx and got.equals(want)
    assert (got.cols, got.scale, got.loss) == (want.cols, want.scale,
                                               want.loss)


def test_dual_of_a_zero_pairing_exceeds_the_boost(monkeypatch):
    # two lattices of one sign pair to zero: every elementary divisor of
    # the Gram matrix vanishes and counts as N, so the dual depth passes
    # the context precision and, after one boost, the boosted one too
    D = Session(load_corpus("three_slope_rank4")).decomp()
    Vm = D.V_minus
    N = Vm.ctx.N
    grams = []
    real = signs.smith_valuations

    def recorded(wctx, gram, neff=None):
        grams.append((wctx.N, all(ring(wctx).vanishes(row, wctx.N)
                                  for row in gram)))
        return real(wctx, gram, neff=neff)

    monkeypatch.setattr(signs, "smith_valuations", recorded)
    with pytest.raises(PrecisionExhausted,
                       match="^dual depth exceeded the boost$"):
        dual_lattice(Vm, Vm)
    # K = N + 1 at the context, so the boost adds 2K + 8 digits
    assert grams == [(N, True), (3 * N + 10, True)]
