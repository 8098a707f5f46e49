"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact integer/lattice equalities except where a
modulus p^(N-4) is stated explicitly.
"""

import random
import time
from fractions import Fraction

from dieudonne.witt import make_context
from dieudonne.lattices import Lattice, intersect, lattice_sum
from dieudonne.isocrystal import (FIsocrystal, end_decompose, end_frobenius,
                                  newton_slopes, slope_split)
from dieudonne.core import (TangentSpace, check_axioms, codim_of_dieudonne,
                            hodge_splitting, largest_sub_dieudonne,
                            lie_element, nu_image, star_property_holds)
from dieudonne.lattices import restrict_map
from dieudonne.matrix import ring
from dieudonne.signs import (SlopePairSet, dual_lattice, sign_modules,
                             slice_chain, slice_monotone, slice_report,
                             quasi_factor_codims)
from dieudonne.deformation import (DeformationBasis, prepare_trivializer,
                                   recursion_residual,
                                   select_deformation_basis,
                                   solve_connection, trivialize_at_point,
                                   verify_horizontality)
from dieudonne.strata import (group_symplectic, polarized_dim, strata_dims,
                              traverso_dimension)
from dieudonne.cli import load_corpus
from dieudonne.errors import DieudonneError
from dieudonne.problems import Session

from instances import pair_subsets, random_split_instance, raw

CORPUS = ["ordinary_rank2", "supersingular_rank2", "example_1_7",
          "three_slope_rank4", "four_slope_rank8", "symplectic_ordinary_c2"]


def session(name):
    return Session(load_corpus(name))


def report(line):
    print(f"\nACCEPTANCE {line}")


# ---------------------------------------------------------------------------


def test_criterion_1_rank6_golden():
    """Slopes {1/3:3, 2/3:3}; ranks (E, E0, F0(E0)) = (9, 6, 4); all four
    axioms for (E0, F1); under five seconds."""
    t0 = time.monotonic()
    sess = session("example_1_7")
    X = sess.crystal()
    assert sess.spec.n >= 3 and sess.spec.precision >= 20
    slopes = newton_slopes(X)
    assert slopes == [(Fraction(1, 3), 3), (Fraction(2, 3), 3)]
    O = sess.o_minus()
    assert O.rank == 9
    E0 = sess.lattice_e()
    assert E0.rank == 6
    rep = check_axioms(E0, sess.decomp(), sess.split())
    assert rep.axiom_i and rep.axiom_ii and rep.axiom_iii and rep.axiom_iv
    assert rep.ranks["F0(E)"] == 4
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(f"1 rank-6 golden instance: PASS ({elapsed:.2f}s)")


def test_criterion_2_traverso_formula():
    """dim nu(O_minus) equals the slope-pair sum on the corpus and on 25
    randomized split instances; under 60 seconds."""
    t0 = time.monotonic()
    for name in CORPUS:
        sess = session(name)
        lat, closed = traverso_dimension(sess.decomp(), sess.tangent())
        assert lat == closed
    rng = random.Random(20260810)
    for k in range(25):
        X = random_split_instance(rng)
        S = slope_split(X)
        E = end_decompose(S)
        lat, closed = traverso_dimension(E, TangentSpace(X))
        assert lat == closed
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(f"2 Traverso dimension formula (corpus + 25 random): "
           f"PASS ({elapsed:.2f}s)")


def test_criterion_3_per_pair_codims():
    """Lattice-side c_minus of each slope pair equals r_a r_b (b - a)."""
    for name in CORPUS:
        sess = session(name)
        # recomputes each pair lattice-side and the total
        quasi_factor_codims(sess.decomp())
    report("3 per-pair codimension formula on all corpus entries: PASS")


def pair_set_choices(slopes):
    """The full set, all singletons, and one square-zero non-singleton
    (when it exists)."""
    out = [SlopePairSet.full(slopes)]
    full = out[0].pairs
    for pair in full:
        out.append(SlopePairSet([pair], slopes))
    if len(slopes) >= 3:
        out.append(slice_chain(slopes, 1))
    return out


def test_criterion_4_duality():
    """Trace dual of O_minus equals the iteratively closed mixed module
    (both signs) for every corpus entry and pair-set choice; loss <= 4."""
    for name in CORPUS:
        sess = session(name)
        X = sess.crystal()
        E = sess.decomp()
        slopes = sess.slope_data().slope_list
        if len(slopes) == 1:
            continue
        for Y in pair_set_choices(slopes):
            if not Y.pairs:
                continue
            mods = sign_modules(E, Y)  # raises on any mismatch
            assert mods.O_minus.loss <= 4
            assert mods.O_plus_minus.loss <= 4
            assert mods.O_minus_plus.loss <= 4
    report("4 trace duality vs iterative closure on all pair sets: PASS")


def test_criterion_5_nu_dimension_is_codimension():
    """dim nu(E) = c_E for the full negative lattice, the rank-6 E and
    E0, and every single-pair negative lattice."""
    for name in CORPUS:
        sess = session(name)
        X = sess.crystal()
        T = sess.tangent()
        minus = sess.decomp().carrier("minus")
        O = sess.o_minus()
        if O.rank:
            assert nu_image(O, T)[0] == codim_of_dieudonne(O, minus)
        slopes = sess.slope_data().slope_list
        for pair in SlopePairSet.full(slopes).pairs:
            O1 = sess.decomp().o_minus((pair,))
            assert nu_image(O1, T)[0] == codim_of_dieudonne(O1, minus)
    sess = session("example_1_7")
    minus = sess.decomp().carrier("minus")
    T = sess.tangent()
    assert nu_image(sess.o_minus(), T)[0] == 3
    assert codim_of_dieudonne(sess.o_minus(), minus) == 3
    E0 = sess.lattice_e()
    assert nu_image(E0, T)[0] == 2
    assert codim_of_dieudonne(E0, minus) == 2
    report("5 tangent dimension equals codimension for all negative "
           "lattices: PASS")


def test_criterion_6_connection_solver():
    """p = 2, degree 8: the solved series is -1 - x - x^3 - x^7 and the
    horizontality residual vanishes; the zero tuple gives the flat
    connection.  Oracle: substitution into the defining recursion."""
    sess = session("ordinary_rank2")
    X = sess.crystal()
    ctx = sess.ctx()
    assert ctx.p == 2
    O = sess.o_minus()
    B = select_deformation_basis(O, sess.tangent())
    conn = solve_connection(X, O, B, 8)
    w = conn.w[(0, 0)]
    assert sorted({sum(e) for e in w.coeffs}) == [0, 1, 3, 7]
    for d in (0, 1, 3, 7):
        assert w.coefficient((d,)) == ring(ctx).of_int(-1)
    for (series, window) in recursion_residual(conn).values():
        assert series.is_zero_through(window)
    hor = verify_horizontality(X, conn, sess.split())
    assert hor["vanishes"]
    zeroB = DeformationBasis([[0] * 4], O)
    conn0 = solve_connection(X, O, zeroB, 8)
    assert all(s.is_zero() for s in conn0.w.values())
    report("6 connection solver golden series and horizontality: PASS")


def test_criterion_7_trivializer():
    """The straightening identity holds modulo p^(N-4) at 20 seeded
    points for every non-isoclinic corpus entry; under 30 seconds."""
    t0 = time.monotonic()
    rng = random.Random(777)
    for name in CORPUS:
        sess = session(name)
        X = sess.crystal()
        ctx = sess.ctx()
        if len(sess.slope_data().slopes) == 1:
            continue
        O = sess.o_minus()
        B = select_deformation_basis(O, sess.tangent())
        ws = prepare_trivializer(X, O, B)
        for _ in range(20):
            point = [tuple(rng.randrange(ctx.p) for _ in range(ctx.n))
                     for _ in range(B.n)]
            res = trivialize_at_point(X, O, B, point, workspace=ws)
            assert res["verified_modulus"] >= ctx.N - 4
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(f"7 point trivializer at 20 points per entry: PASS "
           f"({elapsed:.2f}s)")


def test_criterion_8_symplectic_dimension():
    """Polarized dimensions: 3 for the ordinary c = d = 2 entry, 1 for
    the elliptic one, 0 for a supersingular pair; Manin symmetry checked
    on every polarized entry."""
    sess = session("symplectic_ordinary_c2")
    lat, closed = polarized_dim(sess.decomp(), sess.split(),
                                sess.symplectic_group, sess.strata)
    assert lat == closed == 3
    sess1 = session("elliptic_polarized")
    lat1, closed1 = polarized_dim(sess1.decomp(), sess1.split(),
                                  sess1.symplectic_group, sess1.strata)
    assert lat1 == closed1 == 1
    # supersingular c = d = 2 pair
    ctx2 = make_context(3, 1, 40)
    p = 3
    rows = [[0, -p, 0, 0], [1, 0, 0, 0], [0, 0, 0, -p], [0, 0, 1, 0]]
    X2 = FIsocrystal.from_int_matrix(ctx2, rows)
    S2 = slope_split(X2)
    E2 = end_decompose(S2)
    gram2 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    split2 = hodge_splitting(X2, [[0, 1, 0, 0], [0, 0, 0, 1]])
    lat2, closed2 = polarized_dim(
        E2, split2, lambda: group_symplectic(X2, gram2),
        lambda gd: strata_dims(gd, E2, split2, TangentSpace(X2)))
    assert lat2 == closed2 == 0
    report("8 polarized dimension formula (3 / 1 / 0): PASS")


def test_criterion_9_property_suites():
    """Seed-fixed randomized property checks across the corpus; zero
    failures allowed."""
    rng = random.Random(90210)
    failures = []

    def check(label, cond):
        if not cond:
            failures.append(label)

    # Frobenius automorphism laws and Teichmuller multiplicativity
    for (p, n) in [(2, 3), (3, 2), (5, 1)]:
        ctx = make_context(p, n, 24)
        for _ in range(25):
            a = ctx.scalar([rng.randrange(ctx.pN) for _ in range(n)])
            b = ctx.scalar([rng.randrange(ctx.pN) for _ in range(n)])
            fa, fb = ctx.frobenius(a), ctx.frobenius(b)
            check("sigma additive",
                  ctx.frobenius(ctx.add(a, b)) == ctx.add(fa, fb))
            check("sigma multiplicative",
                  ctx.frobenius(ctx.mul(a, b)) == ctx.mul(fa, fb))
            check("sigma order n", ctx.frobenius(a, n) == a)
        for _ in range(10):
            c1 = tuple(rng.randrange(p) for _ in range(n))
            c2 = tuple(rng.randrange(p) for _ in range(n))
            t1, t2 = ctx.teichmuller(c1), ctx.teichmuller(c2)
            check("teichmuller multiplicative",
                  ctx.mul(t1, t2) == ctx.teichmuller(ctx.gf_mul(c1, c2)))
    # lattice modular law
    ctx = make_context(2, 1, 24)
    for _ in range(10):
        c1 = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(3)]
        c2 = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(3)]
        L1 = Lattice.from_columns(ctx, 3, raw(ctx, c1))
        L2 = Lattice.from_columns(ctx, 3, raw(ctx, c2))
        if L1.rank < 3 or L2.rank < 3:
            continue
        check("modular law",
              intersect(L1, lattice_sum(L1, L2)).equals(L1))
    # per-entry suites
    for name in CORPUS:
        sess = session(name)
        X = sess.crystal()
        ctx = sess.ctx()
        T = sess.tangent()
        S = sess.slope_data()
        E = sess.decomp()
        r = X.rank
        # star property on 50 random integral endomorphisms
        for _ in range(50):
            mat = [[ctx.scalar([rng.randrange(ctx.pN)
                                for _ in range(ctx.n)])
                    for _ in range(r)] for _ in range(r)]
            check(f"star property ({name})",
                  star_property_holds(X, T, mat))
        if len(S.slopes) == 1:
            continue
        O = sess.o_minus()
        # double dual through the reference lattices
        Y = SlopePairSet.full(S.slope_list)
        mods = sign_modules(E, Y)
        dd = dual_lattice(mods.O_plus_minus, mods.V_minus)
        check(f"double dual ({name})", dd.equals(mods.O_minus))
        # maximality: p O is stable and recomputes to itself; monotone
        pO = Lattice.from_columns(
            ctx, r * r, raw(ctx, [[ctx.mul_int(ctx.scalar(x), ctx.p)
                                   for x in c] for c in O.cols]))
        check(f"maximality ({name})",
              largest_sub_dieudonne(pO, E.carrier("minus")).equals(pO)
              and O.contains(pO))
        half = Lattice.from_columns(
            ctx, r * r,
            [list(c) for k, c in enumerate(O.cols) if k % 2 == 0])
        check(f"monotonicity ({name})",
              O.contains(largest_sub_dieudonne(half, E.carrier("minus"))))
        # Lie element bracket identity on the slice lattice
        Elat = sess.lattice_e()
        if Elat.rank:
            try:
                t = lie_element(Elat, S)
                ok = True
            except DieudonneError:
                ok = False
            check(f"lie element ({name})", ok)
        # slopes of the negative lattice under p phi sit inside [0, 1)
        pphi = end_frobenius(X).scale_p(1)
        sub = restrict_map(pphi, O)
        for (a, _) in newton_slopes(FIsocrystal(ctx, sub)):
            check(f"O_minus slope range ({name})", 0 <= a < 1)
    assert not failures, f"property failures: {sorted(set(failures))}"
    report("9 randomized property suites (seed-fixed): PASS")


def test_criterion_10_square_zero_slices():
    """The shaped pair set of the four-slope entry is square-zero with a
    square-zero lattice; subset monotonicity holds; chain cardinalities
    are level (m - level) for m up to 6."""
    sess = session("four_slope_rank8")
    S = sess.slope_data()
    E = sess.decomp()
    Y = sess.pair_set()
    s = S.slope_list
    assert set(Y.pairs) == {(s[2], s[3]), (s[0], s[3]), (s[0], s[1])}
    assert Y.is_square_zero
    rep = slice_report(E, Y, tangent=sess.tangent())
    assert rep["square_zero"] and rep["square_vanishes"]
    for Y1 in pair_subsets(Y):
        assert slice_monotone(E, Y, Y1)
    for m in range(2, 7):
        slopes = [Fraction(i, m) for i in range(m)]
        for level in range(1, m):
            assert len(slice_chain(slopes, level).pairs) == \
                level * (m - level)
    report("10 square-zero slice suite on the four-slope entry: PASS")
