"""Connection solver, horizontality, trivializer, and correction-factor
tests.  The golden series for the ordinary rank-2 module at p = 2 with
degree bound 8 is -1 - x - x^3 - x^7 (partial sums of -sum x^(2^k - 1)),
checked independently by substitution into the defining recursion."""

import gc
import random
import re

import pytest

from dieudonne import core, isocrystal, matrix
from dieudonne.cli import corpus_names, load_corpus
from dieudonne.witt import WittContext, make_context
from dieudonne.isocrystal import (FIsocrystal, slope_split, end_decompose,
                                  newton_slopes, vec_to_mat)
from dieudonne.core import (TangentSpace, hodge_splitting_from_kernel,
                            largest_sub_dieudonne, lie_element, nu_image,
                            _backward_numerator)
from dieudonne.series import TruncatedSeries, linear_matrix
from dieudonne.deformation import (
    ConnectionForm, DeformationBasis, apply_twisted_frobenius,
    correction_factor, divided_power, induced_connection_tilde,
    kodaira_spencer_image,
    prepare_trivializer, recursion_residual, select_deformation_basis,
    solve_connection, trivialize_at_point, verify_horizontality,
    _nabla, _orbit_sum, _orbit_tables,
)
from dieudonne.errors import (HypothesisViolated, InclusionViolated,
                              NonConvergence)
from dieudonne.lattices import Lattice, SemilinearMap, restrict_map
from dieudonne.matrix import ring
from dieudonne.problems import Session

from instances import (conjugated_draws, non_split_rank6, ordinary_rank2,
                       random_split_instance, rank6_two_slope, rank8_conj,
                       sigma_twisted_instance, three_slope_rank4)


# ---------------------------------------------------------------------------
# series arithmetic
#
# Series hold raw entries of ``ring(ctx)``; the checks read them as the
# context's coefficient tuples (an n = 1 int becomes a 1-tuple) to compare
# against the context's raw ops.


def as_tuple(R, x):
    return R.ctx.scalar(x)


def raw(ctx, x):
    """The raw entry of a coefficient tuple or int."""
    return ring(ctx).raw_col([x])[0]


def test_series_ring_ops():
    ctx = make_context(2, 1, 16)
    R = ring(ctx)
    x = TruncatedSeries.variable(R, 2, 6, 0)
    y = TruncatedSeries.variable(R, 2, 6, 1)
    s = (x + y) * (x - y)
    assert as_tuple(R, s.coefficient((2, 0))) == ctx.scalar(1)
    assert as_tuple(R, s.coefficient((0, 2))) == ctx.scalar(-1)
    assert ctx.is_zero(as_tuple(R, s.coefficient((1, 1))))


def test_series_truncation():
    R = ring(make_context(2, 1, 16))
    x = TruncatedSeries.variable(R, 1, 4, 0)
    s = x * x * x
    assert not s.is_zero()
    assert (s * s).is_zero()  # degree 6 > 4


def test_series_frobenius_lift():
    ctx = make_context(2, 2, 12)
    R = ring(ctx)
    g = ctx.scalar([0, 1])
    x = TruncatedSeries.variable(R, 1, 8, 0)
    s = x * raw(ctx, g)
    t = s.frobenius_lift()
    assert as_tuple(R, t.coefficient((2,))) == ctx.frobenius(g)
    assert ctx.is_zero(as_tuple(R, t.coefficient((1,))))


def test_series_partial_and_evaluate():
    ctx = make_context(3, 1, 12)
    R = ring(ctx)
    x = TruncatedSeries.variable(R, 1, 6, 0)
    s = x * x * raw(ctx, 2) + x
    ds = s.partial(0)
    assert as_tuple(R, ds.coefficient((1,))) == ctx.scalar(4)
    assert as_tuple(R, ds.coefficient((0,))) == ctx.scalar(1)
    table = TruncatedSeries.power_table(R, [raw(ctx, 3)], s.dmax)
    assert as_tuple(R, s.evaluate(table)) == ctx.scalar(21)


# ---------------------------------------------------------------------------
# connection solver


def ordinary_setup(p, N, dmax):
    ctx = make_context(p, 1, N)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    T = TangentSpace(X)
    B = select_deformation_basis(O, T)
    conn = solve_connection(X, O, B, dmax)
    return ctx, X, O, T, B, conn


def test_connection_golden_p2():
    ctx, X, O, T, B, conn = ordinary_setup(2, 20, 8)
    R = ring(ctx)
    w = conn.w[(0, 0)]
    # -1 - x - x^3 - x^7
    for d in (0, 1, 3, 7):
        assert as_tuple(R, w.coefficient((d,))) == ctx.scalar(-1)
    assert sorted({sum(e) for e in w.coeffs}) == [0, 1, 3, 7]


def test_connection_golden_p3():
    ctx, X, O, T, B, conn = ordinary_setup(3, 20, 8)
    w = conn.w[(0, 0)]
    # -1 - x^2 - x^8
    assert sorted({sum(e) for e in w.coeffs}) == [0, 2, 8]
    for d in (0, 2, 8):
        assert as_tuple(ring(ctx), w.coefficient((d,))) == ctx.scalar(-1)


def test_connection_recursion_residual_vanishes():
    # oracle: substitute the solved series back into b + w = O(w)
    for p in (2, 3):
        ctx, X, O, T, B, conn = ordinary_setup(p, 20, 8)
        res = recursion_residual(conn)
        for (series, window) in res.values():
            assert series.is_zero_through(window)


def test_connection_zero_basis():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    B = DeformationBasis([[0] * 4], O)
    conn = solve_connection(X, O, B, 8)
    assert conn.w[(0, 0)].is_zero()


def test_connection_rejects_non_square_zero():
    ctx = make_context(5, 1, 24)
    X = three_slope_rank4(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    T = TangentSpace(X)
    B = select_deformation_basis(E.V_minus, T)
    with pytest.raises(HypothesisViolated):
        solve_connection(X, E.V_minus, B, 8)


def test_connection_passes_bugs_through(monkeypatch):
    # only a stability failure of the restriction becomes
    # HypothesisViolated
    def broken(*args):
        raise TypeError("a bug, not an unstable lattice")

    ctx, X, O, T, B, conn = ordinary_setup(2, 20, 8)
    monkeypatch.setattr("dieudonne.deformation.restrict_map", broken)
    with pytest.raises(TypeError):
        solve_connection(X, O, B, 8)


def test_universal_element_at_origin():
    ctx, X, O, T, B, conn = ordinary_setup(2, 20, 8)
    u = universal_element_reference(X, B, 8)
    for i in range(2):
        for j in range(2):
            c0 = as_tuple(ring(ctx), u[i][j].constant_term())
            assert c0 == ctx.scalar(1 if i == j else 0)


def test_horizontality_ordinary():
    for p in (2, 3):
        ctx, X, O, T, B, conn = ordinary_setup(p, 20, 8)
        split = hodge_splitting_from_kernel(X)
        report = verify_horizontality(X, conn, split)
        assert report["vanishes"]
        assert report["degree_window"] >= 1


def test_horizontality_detects_perturbation():
    ctx, X, O, T, B, conn = ordinary_setup(2, 20, 8)
    x1 = TruncatedSeries.variable(ring(ctx), 1, 8, 0)
    conn.w[(0, 0)] = conn.w[(0, 0)] + x1
    split = hodge_splitting_from_kernel(X)
    report = verify_horizontality(X, conn, split)
    assert not report["vanishes"]


def test_kodaira_spencer_ordinary():
    ctx, X, O, T, B, conn = ordinary_setup(2, 20, 8)
    dim, ech = kodaira_spencer_image(conn, T)
    assert dim == 1
    want, _ = nu_image(O, T)
    assert dim == want


def test_kodaira_spencer_rank6():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    T = TangentSpace(X)
    B = select_deformation_basis(O, T)
    assert B.n == 3
    conn = solve_connection(X, O, B, 4)
    dim, _ = kodaira_spencer_image(conn, T)
    assert dim == 3


def test_induced_connection_tilde():
    ctx, X, O, T, B, conn = ordinary_setup(2, 20, 8)
    S = slope_split(X)
    t = lie_element(O, S)
    report = induced_connection_tilde(conn, t)
    assert report["e_part_flat"]
    assert report["t_lands_in_E"]
    # the t-form is e_0 * w_{0,0} d x_0
    forms = report["t_form"][0]
    assert len(forms) == 1 and forms[0][0] == 0


# ---------------------------------------------------------------------------
# trivialization


def test_trivialize_zero_point():
    ctx = make_context(2, 1, 24)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    T = TangentSpace(X)
    B = select_deformation_basis(O, T)
    out = trivialize_at_point(X, O, B, [0])
    assert out["steps"] == 0
    R = ring(ctx)
    u = out["u_infinity"]
    assert u[0][0] == R.one and u[0][1] == R.zero


def test_trivialize_ordinary_unit_point():
    ctx = make_context(2, 1, 24)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    T = TangentSpace(X)
    B = select_deformation_basis(O, T)
    out = trivialize_at_point(X, O, B, [1])
    assert out["converged"]
    assert out["steps"] <= ctx.N
    assert out["verified_modulus"] >= ctx.N - 4


def test_trivialize_rank6_random_points():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    T = TangentSpace(X)
    B = select_deformation_basis(O, T)
    rng = random.Random(71)
    for _ in range(3):
        point = [tuple(rng.randrange(2) for _ in range(3))
                 for _ in range(B.n)]
        out = trivialize_at_point(X, O, B, point)
        assert out["verified_modulus"] >= ctx.N - 4


# ---------------------------------------------------------------------------
# the square-zero orbit sum against the product loop
#
# ``_trivialize_reference`` is the former body of trivialize_at_point, kept
# verbatim with the row combination ``_combine`` it called: it multiplies
# out prod_k (1 + n_k) and its inverse on every lattice.  The library sums
# the orbit instead when the workspace found E square-zero, and must agree
# entry for entry.

NON_ISOCLINIC = ["elliptic_polarized", "example_1_7", "four_slope_rank8",
                 "ordinary_rank2", "symplectic_ordinary_c2",
                 "three_slope_rank4"]


def _combine(R, coeffs, vecs, length):
    """sum_k coeffs[k] vecs[k] on raw vectors of the given length."""
    out = [R.zero] * length
    for c, v in zip(coeffs, vecs):
        if c != R.zero:
            out = R.axpy(out, R.neg(c), v)
    return out


def _trivialize_reference(crystal, E, B, point, workspace=None):
    ctx = crystal.ctx
    r = crystal.rank
    ws = workspace or prepare_trivializer(crystal, E, B)
    big = ws["big"]
    dval = ws["dval"]
    bE = ws["bE"]
    bvecs = ws["bvecs"]
    R = ring(big)
    # u_h = 1 + sum v_i teich(point_i)
    taus = R.raw_col([big.teichmuller(big.scalar(coord)) for coord in point])
    n0 = _combine(R, taus, bvecs, r * r)
    ident = R.identity(r)
    u_h = R.add_mat(ident, vec_to_mat(n0, r))
    # backward-orbit coordinates: c_k = C^k c_0 on the basis of E
    coords = bE.solve(n0, 0)
    if coords is None:
        raise HypothesisViolated("the point twist does not lie in E")
    Cmap = ws["Cmap"].rows
    ech_rows = list(zip(*bE.ech))
    cap = ctx.N * max(r, 2) + 10
    prod = prod_inv = ident
    steps = 0
    back = (-1) % big.n
    dot = R.dot
    while True:
        # the inverse conjugation is sigma^{-1}-semilinear: twist the
        # coordinates before applying the restriction matrix
        twisted = [R.frob(c, back) for c in coords]
        coords = [dot(row, twisted) for row in Cmap]
        if R.vanishes(coords, ctx.N):
            break
        steps += 1
        if steps > cap:
            raise NonConvergence(
                "backward Frobenius orbit did not reach zero; are the "
                "inverse-Frobenius slopes positive on E?")
        nk = vec_to_mat([dot(row, coords) for row in ech_rows], r)
        prod = R.mul_mat(R.add_mat(ident, nk), prod)
        prod_inv = R.mul_mat(prod_inv, R.nilpotent_inverse(nk, r))
    # certificate: prod u_h A sigma(prod^{-1}) A^{-1} = 1
    lhs = R.mul_mat(R.mul_mat(prod, u_h), ws["abig"])
    lhs = R.mul_mat(lhs, [[R.frob(x, 1) for x in row] for row in prod_inv])
    lhs = R.mul_mat(lhs, ws["ainv"])
    pd = R.of_int(big.p ** dval)
    verified = ctx.N
    for a_, row in enumerate(lhs):
        for b_, x in enumerate(row):
            if a_ == b_:
                x = R.sub(x, pd)
            # lhs carries the cleared p^dval, so subtract it from the
            # certified exponent
            verified = min(verified, max(0, R.val(x) - dval))
    return {
        "u_infinity": ring(ctx).raw_mat(prod),
        "steps": steps,
        "verified_modulus": verified,
        "loss": ctx.N - verified,
        "converged": True,
    }


def _seeded_points(ctx, nvars, seed, count):
    rng = random.Random(seed)
    return [[tuple(rng.randrange(ctx.p) for _ in range(ctx.n))
             for _ in range(nvars)] for _ in range(count)]


def test_non_isoclinic_list_is_the_corpus():
    found = [name for name in corpus_names()
             if len(newton_slopes(Session(load_corpus(name)).crystal())) > 1]
    assert found == NON_ISOCLINIC


@pytest.mark.parametrize("name", NON_ISOCLINIC)
def test_trivialize_sum_matches_product_loop(name):
    sess = Session(load_corpus(name))
    X, E, B = sess.crystal(), sess.lattice_e(), sess.deformation_basis()
    ctx = sess.ctx()
    ws = prepare_trivializer(X, E, B)
    assert ws["square_zero"]
    points = [[(0,) * ctx.n] * B.n] + _seeded_points(
        ctx, B.n, 4000 + NON_ISOCLINIC.index(name), 6)
    for point in points:
        got = trivialize_at_point(X, E, B, point, workspace=ws)
        want = _trivialize_reference(X, E, B, point, workspace=ws)
        assert got == want


@pytest.mark.parametrize("name", ["three_slope_rank4", "four_slope_rank8"])
def test_trivialize_falls_back_on_non_square_zero(name):
    # O_minus is not square-zero here: the gate is false and the product
    # loop runs, still agreeing with the reference
    sess = Session(load_corpus(name))
    X, O = sess.crystal(), sess.o_minus()
    B = select_deformation_basis(O, sess.tangent())
    ws = prepare_trivializer(X, O, B)
    assert not ws["square_zero"]
    for point in _seeded_points(sess.ctx(), B.n, 4100, 2):
        got = trivialize_at_point(X, O, B, point, workspace=ws)
        assert got == _trivialize_reference(X, O, B, point, workspace=ws)


def test_trivialize_with_an_empty_basis():
    # no deformation vectors: the twist is zero, so the point is already
    # trivial and the certificate holds at the full precision
    sess = Session(load_corpus("four_slope_rank8"))
    X, E = sess.crystal(), sess.lattice_e()
    got = trivialize_at_point(X, E, DeformationBasis([], E), [])
    assert got["steps"] == 0 and got["converged"]
    assert got["verified_modulus"] == X.ctx.N == 48
    assert got["u_infinity"] == ring(X.ctx).identity(X.rank)


def _non_split_spec(pairs=None):
    """non_split_rank6 at p = 2, N = 32 and degree 9 as a parsed problem,
    on the given slope pairs (by default all of them)."""
    from dieudonne.problems import parse_dict
    X = non_split_rank6(make_context(2, 1, 32))
    doc = {"name": "non_split_rank6", "p": 2, "n": 1, "precision": 32,
           "degree": 9, "rank": 6,
           "phi_matrix": [list(row) for row in X.phi.rows]}
    return parse_dict(dict(doc, slope_pairs=pairs) if pairs else doc)


def test_trivializer_keeps_the_loss_of_E():
    # on a module that does not split, E carries a loss: its basis is
    # known modulo p^(N - loss) only, and its boosted copy no better, so
    # the stability of E under the inverse Frobenius is certified at the
    # digits E has
    from dieudonne.problems import run
    moduli = {}
    for pairs in (None, [["0", "1/3"], ["0", "1/2"]]):
        spec = _non_split_spec(pairs)
        sess = Session(spec)
        E = sess.lattice_e()
        assert E.loss > 0
        ws = prepare_trivializer(sess.crystal(), E,
                                 sess.deformation_basis())
        assert ws["bE"].loss == E.loss + ws["big"].N - sess.ctx().N
        found = run(spec, ["trivialize"])["analyses"]["trivialize"]
        assert found["ok"], found
        moduli[bool(pairs)] = [res["verified_modulus"]
                               for res in found["results"]]
    # the certificate reads the digits of E's basis at and above
    # p^(N - loss), which the lattice does not fix: all three points now
    # reach N - loss(E) = 30 on the full pair set (the V_minus built from
    # the component factors gave E another presentation)
    assert moduli == {False: [30, 30, 30], True: [30, 30, 30]}
    # a basis of loss 0 stays exact at the boost
    sess = Session(load_corpus("four_slope_rank8"))
    ws = prepare_trivializer(sess.crystal(), sess.lattice_e(),
                             sess.deformation_basis())
    assert sess.lattice_e().loss == ws["bE"].loss == 0


NON_SPLIT_SERIES = {
    "w[0,0]": "w(4294967295) + w(59946939)*x0 + w(3188368600)*x0^3"
              " + w(4191624052)*x0^7",
    "w[0,1]": "w(595985773)*x1 + w(1971924404)*x1^3 + w(3912283632)*x1^7",
    "w[1,0]": "w(3853844160)*x0 + w(1123581293)*x0^3 + w(1809634162)*x0^7",
    "w[1,1]": "w(4112528783)*x1 + w(2439949601)*x1^3 + w(94639836)*x1^7",
    "w[2,0]": "w(407770639)*x0 + w(1580850599)*x0^3 + w(3136436970)*x0^7",
    "w[2,1]": "w(4294967295) + w(543691358)*x1 + w(337778663)*x1^3"
              " + w(3337559196)*x1^7",
    "w[3,0]": "w(3988361782)*x0 + w(3587339589)*x0^3 + w(8228548)*x0^7",
    "w[3,1]": "w(192134017)*x1 + w(3878991191)*x1^3 + w(1879744454)*x1^7",
    "w[4,0]": "w(413844026)*x0 + w(2439910925)*x0^3 + w(711708012)*x0^7",
    "w[4,1]": "w(3595295049)*x1 + w(1852178711)*x1^3 + w(4239679690)*x1^7",
}

NON_SPLIT_CORRECTION = [
    [4219945677, 3595633724, 1031488288, 3990852108, 4020824508, 3484660340],
    [2189758210, 3365643115, 2298013744, 142797026, 1052550570, 477965278],
    [2478532362, 2122972434, 1359948017, 2660952170, 4115564626, 1502084950],
    [4047234320, 4267093072, 3327752576, 3446989841, 1544117840, 2055643632],
    [3180032420, 1621366516, 2099881824, 1524632420, 194916213, 2194782748],
    [2964547850, 4050282258, 1204771056, 2816264810, 4283511378, 297459031]]


def _series_mod(series, k):
    """{name: {monomial: coefficient mod p^k}} of a connection's series
    text at p = 2, zero coefficients dropped."""
    return {name: {mono: int(c) % 2 ** k for c, mono in re.findall(
        r"w\((\d+)\)(\*x\d+(?:\^\d+)?)?", text) if int(c) % 2 ** k}
        for name, text in series.items()}


def test_non_split_connection_and_correction_are_pinned():
    # off the split corpus (E carries a loss), the series text, the
    # horizontality report and the correction factor at z = (p, p) are
    # those that the product with the full series matrix of u gave.  The
    # series are coordinates on the echelon basis of E, which is its
    # canonical columns; E is known modulo p^(N - 1), and so the series
    # at N = 32 agree with those at N = 64 modulo 2^31
    from dieudonne.problems import parse_dict, run
    X = non_split_rank6(make_context(2, 1, 32))
    doc = {"name": "non_split_rank6", "p": 2, "n": 1, "precision": 32,
           "degree": 9, "rank": 6,
           "phi_matrix": [list(row) for row in X.phi.rows],
           "slope_pairs": [["0", "1/3"], ["0", "1/2"]]}
    spec = parse_dict(doc)
    E = Session(spec).lattice_e()
    assert E.loss == 1 and E.ech == E.cols
    found = run(spec, ["connection", "correction"], 0)["analyses"]
    high = run(parse_dict(dict(doc, precision=64)), ["connection"],
               0)["analyses"]["connection"]["series"]
    assert _series_mod(NON_SPLIT_SERIES, 31) == _series_mod(high, 31)
    assert found["connection"] == {
        "variables": 2, "series": NON_SPLIT_SERIES, "ok": True,
        "horizontality": {"residual_valuation": 31, "certified_modulus": 31,
                          "degree_window": 8, "vanishes": True},
        "kodaira_spencer_dimension": 2}
    assert found["correction"] == {
        "unit_mod_p": True, "defect_in_E_mod_p2": True,
        "y_valuations": [1, 1], "ok": True}
    sess = Session(spec)
    conn = sess.connection()
    got = correction_factor(sess.crystal(), conn, [ring(X.ctx).of_int(2)] * 2)
    assert got["matrix"] == NON_SPLIT_CORRECTION


def test_square_zero_trivializer_makes_no_orbit_products(monkeypatch):
    # the orbit is summed: only the four certificate products remain,
    # however many steps the orbit takes
    sess = Session(load_corpus("four_slope_rank8"))
    X, E, B = sess.crystal(), sess.lattice_e(), sess.deformation_basis()
    ws = prepare_trivializer(X, E, B)
    calls = {"mul_mat": 0, "nilpotent_inverse": 0}

    def counting(name):
        body = getattr(matrix._Ring, name)

        def counted(self, *args):
            calls[name] += 1
            return body(self, *args)
        return counted

    for name in calls:
        monkeypatch.setattr(matrix._Ring, name, counting(name))
    steps = set()
    for point in ([(0,), (0,), (0,)], [(0,), (1,), (0,)],
                  [(0,), (0,), (1,)], [(1,), (2,), (3,)]):
        for name in calls:
            calls[name] = 0
        out = trivialize_at_point(X, E, B, point, workspace=ws)
        steps.add(out["steps"])
        assert calls == {"mul_mat": 4, "nilpotent_inverse": 0}
    assert steps == {0, 47, 143}


def _cmap_cases():
    """(name, crystal, E): the corpus, non_split_rank6 on both pair sets,
    rank8_conj, the conjugated draws and the sigma-twisted module (whose
    entries sigma moves), each with its default E."""
    from dieudonne.problems import parse_dict
    sessions = [(name, Session(load_corpus(name))) for name in corpus_names()]
    sessions += [("non_split_rank6", Session(_non_split_spec())),
                 ("non_split_rank6_pairs", Session(_non_split_spec(
                     [["0", "1/3"], ["0", "1/2"]]))),
                 ("rank8_conj", Session(parse_dict(rank8_conj())))]
    cases = [(name, sess.crystal(), sess.lattice_e())
             for name, sess in sessions]
    draws = [(f"conjugated-{k}", X) for k, X in enumerate(conjugated_draws())]
    draws.append(("sigma_twisted", sigma_twisted_instance()))
    for name, X in draws:
        cases.append((name, X, end_decompose(slope_split(X)).o_minus()))
    return cases


def test_cmap_is_the_restricted_sandwich():
    # prepare_trivializer restricts x -> sigma^{-1}(A_adj x A) to the
    # echelon basis of E with r x r products; the restriction of the
    # boosted crystal's r^2 x r^2 backward numerator is the reference,
    # equal in rows, twist and loss, and failing where it fails: on
    # rank8_conj and on six of the eight conjugated draws, whose O_minus
    # is not stable under the inverse Frobenius
    failed = []
    for name, X, E in _cmap_cases():
        try:
            ws = prepare_trivializer(X, E, DeformationBasis([], E))
        except HypothesisViolated as exc:
            assert str(exc) == "E is not stable under the inverse Frobenius"
            failed.append(name)
            # the reference fails at the same boost
            _, dval = X.inverse_numerator()
            big = make_context(X.ctx.p, X.ctx.n, X.ctx.N + E.index_valuation()
                               + 2 * dval + 8)
            loss = E.loss + big.N - X.ctx.N if E.loss else 0
            bE = Lattice.from_columns(big, E.ambient, E.cols, scale=E.scale,
                                      loss=loss)
            with pytest.raises(InclusionViolated):
                restrict_map(_backward_numerator(X.at_precision(big))[0], bE)
            continue
        bX = X.at_precision(ws["big"])
        want = restrict_map(_backward_numerator(bX)[0], ws["bE"])
        got = ws["Cmap"]
        assert (got.rows, got.twist, got.denominator, got.loss) == \
            (want.rows, want.twist, want.denominator, want.loss), name
    assert failed == ["rank8_conj"] + [f"conjugated-{k}"
                                       for k in (0, 1, 2, 3, 4, 6)]


def test_certificate_pins_its_nonzero_entries():
    # on non_split_rank6 (full pair set, N = 32) the certificate has
    # nonzero entries, and skipping the zero ones gives the full loop's
    # verified modulus at every point of the trivialize analysis
    sess = Session(_non_split_spec())
    X, E, B = sess.crystal(), sess.lattice_e(), sess.deformation_basis()
    ws = prepare_trivializer(X, E, B)
    rng = sess.rng()
    points = [[tuple(rng.randrange(X.ctx.p) for _ in range(X.ctx.n))
               for _ in range(B.n)] for _ in range(3)]
    moduli = []
    for point in points:
        got = trivialize_at_point(X, E, B, point, workspace=ws)
        assert got == _trivialize_reference(X, E, B, point, workspace=ws)
        moduli.append(got["verified_modulus"])
    assert moduli == [30, 30, 30]


def test_point_path_combines_only_live_rows(monkeypatch):
    # on four_slope_rank8, every row that verify_horizontality hands
    # plus_combination holds a nonzero entry, and prepare_trivializer
    # builds no r^2 x r^2 sandwich map
    sess = Session(load_corpus("four_slope_rank8"))
    X, E, B = sess.crystal(), sess.lattice_e(), sess.deformation_basis()
    conn, split = sess.connection(), sess.split()
    R = ring(X.ctx)
    rows = []
    combine = TruncatedSeries.plus_combination

    def recording(self, row, series):
        rows.append(list(row))
        return combine(self, row, series)

    monkeypatch.setattr(TruncatedSeries, "plus_combination", recording)
    assert verify_horizontality(X, conn, split)["vanishes"]
    assert rows and all(any(x != R.zero for x in row) for row in rows)
    sandwiches = []

    def counting(*args, **kwargs):
        sandwiches.append(args)
        return isocrystal.sandwich_map(*args, **kwargs)

    monkeypatch.setattr(core, "sandwich_map", counting)
    prepare_trivializer(X, E, B)
    assert sandwiches == []


# ---------------------------------------------------------------------------
# the doubling-table orbit sum against the step-by-step loop
#
# ``_orbit_sum_reference`` is the former square-zero loop of
# trivialize_at_point: one application of T per step, summing the orbit
# until its first term that vanishes mod p^N.  The maps are seeded and
# synthetic: T = p U with U invertible makes every step raise the
# valuation by exactly one, so a start of valuation v takes exactly
# N - v - 1 steps; T = p X with X random takes steps the test does not
# choose; T = U never vanishes.  The ring carries 8 guard digits above N,
# as the workspace's boosted ring does.

ORBIT_RINGS = [(3, 1), (2, 2), (5, 3)]
ORBIT_N = 12


def _orbit_sum_reference(R, T, coords, N, cap):
    total = [R.zero] * len(coords)
    steps = 0
    while True:
        coords = T.apply_raw(coords)
        if R.vanishes(coords, N):
            return steps, total
        steps += 1
        if steps > cap:
            raise NonConvergence("backward Frobenius orbit did not reach "
                                 "zero")
        total = list(map(R.add, total, coords))


def _random_entry(R, rng):
    ctx = R.ctx
    return R.raw_col([[rng.randrange(ctx.pN) for _ in range(ctx.n)]])[0]


def _unit_matrix(R, m, rng):
    """L U with L unit lower and U unit upper triangular: invertible."""
    low = [[R.one if i == j else _random_entry(R, rng) if i > j else R.zero
            for j in range(m)] for i in range(m)]
    up = [[R.one if i == j else _random_entry(R, rng) if i < j else R.zero
           for j in range(m)] for i in range(m)]
    return R.mul_mat(low, up)


def _start(R, m, v, rng):
    """p^v times a vector with a unit coordinate: valuation exactly v."""
    vec = [_random_entry(R, rng) for _ in range(m)]
    vec[rng.randrange(m)] = R.one
    pv = R.of_int(R.p ** v)
    return [R.mul(x, pv) for x in vec]


def _both_sums(R, T, start, cap):
    """The table sum and the reference, or NonConvergence on both."""
    levels = _orbit_tables(T, cap)
    try:
        want = _orbit_sum_reference(R, T, start, ORBIT_N, cap)
    except NonConvergence:
        with pytest.raises(NonConvergence):
            _orbit_sum(R, levels, start, ORBIT_N, cap)
        return None
    assert _orbit_sum(R, levels, start, ORBIT_N, cap) == want
    return want[0]


@pytest.mark.parametrize("twist", [-1, 1])
@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("p, n", ORBIT_RINGS)
def test_orbit_sum_matches_reference(p, n, m, twist):
    ctx = make_context(p, n, ORBIT_N + 8)
    R = ring(ctx)
    rng = random.Random(100 * p + 10 * n + m + twist)
    cap = 2 * ORBIT_N + 10
    pfac = R.of_int(p)
    shift = SemilinearMap(
        ctx, [[R.mul(x, pfac) for x in row]
              for row in _unit_matrix(R, m, rng)], twist)
    assert _both_sums(R, shift, [R.zero] * m, cap) == 0
    # starts that vanish after exactly 2^j - 1, 2^j and 2^j + 1 steps
    for steps in (1, 2, 3, 4, 5, 7, 8, 9):
        start = _start(R, m, ORBIT_N - 1 - steps, rng)
        assert _both_sums(R, shift, start, cap) == steps
        # a cap of exactly the step count passes; one less raises
        assert _both_sums(R, shift, start, steps) == steps
        assert _both_sums(R, shift, start, steps - 1) is None
    # T = p X for a random X: the orbit takes whatever steps it takes
    loose = SemilinearMap(
        ctx, [[R.mul(_random_entry(R, rng), pfac) for _ in range(m)]
              for _ in range(m)], twist)
    for v in (0, 3):
        assert _both_sums(R, loose, _start(R, m, v, rng), cap) is not None
    # a unit map never reaches zero: NonConvergence on both sides
    unit = SemilinearMap(ctx, _unit_matrix(R, m, rng), twist)
    assert _both_sums(R, unit, _start(R, m, 0, rng), 5) is None


def test_orbit_tables_hold_powers_and_partial_sums():
    ctx = make_context(5, 3, 10)
    R = ring(ctx)
    rng = random.Random(9)
    T = SemilinearMap(ctx, _unit_matrix(R, 3, rng), -1)
    levels = _orbit_tables(T, 20)
    # the sizes reach the cap plus one, with no level to spare
    assert [size for size, _, _ in levels] == [1, 2, 4, 8, 16]
    power = SemilinearMap.identity(ctx, 3)
    partial = {}
    for k in range(1, 17):
        power = T.compose(power)
        t = power.twist
        partial[t] = partial[t].add(power) if t in partial else power
        for size, P, Q in levels:
            if size == k:
                assert (P.rows, P.twist) == (power.rows, power.twist)
                assert {t: (q.rows, q.twist) for t, q in Q.items()} == \
                    {t: (q.rows, q.twist) for t, q in partial.items()}


def test_point_queries_lift_each_residue_once(monkeypatch):
    # 32 points of the rank-8 base draw their coordinates from the 5
    # residues of F_5: the workspace lifts each of them once, whether a
    # coordinate is given as an int, a tuple or an unreduced value
    sess = Session(load_corpus("four_slope_rank8"))
    X, E, B = sess.crystal(), sess.lattice_e(), sess.deformation_basis()
    ws = prepare_trivializer(X, E, B)
    calls = []

    teichmuller = WittContext.teichmuller

    def counted(ctx, c):
        calls.append(c)
        return teichmuller(ctx, c)

    monkeypatch.setattr(WittContext, "teichmuller", counted)
    rng = random.Random(14)
    points = [[rng.randrange(5) for _ in range(3)] for _ in range(30)]
    points += [[(1,), 6, (11,)], [0, (5,), -4]]
    for point in points:
        trivialize_at_point(X, E, B, point, workspace=ws)
    residues = {c[0] % 5 if isinstance(c, tuple) else c % 5
                for point in points for c in point}
    assert sorted(calls) == sorted((c,) for c in residues)


# ---------------------------------------------------------------------------
# the twisted Frobenius and nabla against the series-matrix forms
#
# ``universal_element_reference`` and ``_series_mat_vec_reference`` are the
# former library bodies, kept verbatim: u = 1 + sum v_i x_i as an r x r
# matrix of series, and the product of a series matrix with a series
# vector.  ``_frobenius_image_reference`` is the former first half of
# apply_twisted_frobenius, A * Phi_S(vec).  The library applies u as
# avec + sum_j x_j (v_j avec) and nabla by row combinations; both must give
# the coefficients and validity windows of the series-matrix products.


def universal_element_reference(crystal, B, dmax):
    """1 + sum v_i x_i as an r x r matrix of series."""
    R = ring(crystal.ctx)
    rows = linear_matrix(R, B.vectors, crystal.rank, dmax)
    one = TruncatedSeries.constant(R, B.n, dmax, R.one)
    for i, row in enumerate(rows):
        row[i] = row[i] + one
    return rows


def _series_mat_vec_reference(rows, vec):
    out = []
    for row in rows:
        acc = None
        for a_, s in zip(row, vec):
            term = a_ * s
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _frobenius_image_reference(crystal, vec):
    R = ring(crystal.ctx)
    lifted = [s.frobenius_lift() for s in vec]
    avec = []
    for i in range(crystal.rank):
        acc = None
        for j in range(crystal.rank):
            c = crystal.phi.rows[i][j]
            if c == R.zero:
                continue
            term = lifted[j] * c
            acc = term if acc is None else acc + term
        if acc is None:
            acc = TruncatedSeries.zero(R, lifted[0].nvars, lifted[0].dmax)
        avec.append(acc)
    return avec


def _seeded_series_vector(ctx, nvars, dmax, r, rng):
    """r series with windows drawn below and at the bound: every third
    entry has no terms, the others up to three monomials of degree at
    most dmax + 1 with coefficients of every valuation."""
    R = ring(ctx)
    vec = []
    for k in range(r):
        coeffs = {}
        for _ in range(0 if k % 3 == 0 else rng.randrange(1, 4)):
            expo = [0] * nvars
            for _ in range(rng.randrange(dmax + 2)):
                expo[rng.randrange(nvars)] += 1
            digits = [rng.randrange(ctx.pN) for _ in range(ctx.n)]
            coeffs[tuple(expo)] = raw(ctx, [d * ctx.p ** rng.randrange(3)
                                            for d in digits])
        vec.append(TruncatedSeries(R, nvars, dmax, coeffs,
                                   valid=rng.randrange(dmax + 1)))
    return vec


def _rank6_setup(dmax):
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    E = end_decompose(slope_split(X))
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    B = select_deformation_basis(O, TangentSpace(X))
    return ctx, X, B, solve_connection(X, O, B, dmax)


def _nonzero_entry(R, rng):
    while True:
        x = raw(R.ctx, [rng.randrange(R.ctx.pN) for _ in range(R.ctx.n)])
        if x != R.zero:
            return x


def _dense_setup(X, seed, nvars=2, m=2, dmax=3):
    """Deformation vectors and form basis elements with no zero entry on
    the crystal X, so that every row of u and of each E_l is live; E is
    the span of the vectors.  The form's series are seeded, every third
    one zero, and solve nothing: the oracles compare the arithmetic of the
    sparse tables with the full products, on any inputs."""
    ctx, r = X.ctx, X.rank
    R = ring(ctx)
    rng = random.Random(seed)
    vectors = [[_nonzero_entry(R, rng) for _ in range(r * r)]
               for _ in range(nvars)]
    E = Lattice.from_columns(ctx, r * r, vectors)
    B = DeformationBasis(vectors, E)
    basis = [[_nonzero_entry(R, rng) for _ in range(r * r)]
             for _ in range(m)]
    w = {}
    for i in range(nvars):
        for l, s in enumerate(_seeded_series_vector(ctx, nvars, dmax, m,
                                                    rng)):
            w[(l, i)] = s
    return ctx, X, B, ConnectionForm(X, E, basis, B, dmax, w, None, None)


def _kernel_setup(name):
    if name == "rank6_two_slope":
        return _rank6_setup(4)
    if name == "four_slope_rank8":
        sess = Session(load_corpus(name))
        return sess.ctx(), sess.crystal(), sess.deformation_basis(), \
            sess.connection()
    if name == "split_dense":
        return _dense_setup(random_split_instance(random.Random(6)), 3400)
    if name == "sigma_twisted_dense":
        return _dense_setup(sigma_twisted_instance(), 3500)
    p = {"ordinary_p2": 2, "ordinary_p3": 3}[name]
    ctx, X, O, T, B, conn = ordinary_setup(p, 20, 8)
    return ctx, X, B, conn


# four_slope_rank8's deformation vectors are mostly zero rows; the dense
# setups, a random_split_instance draw at p = 5 and the sigma-twisted
# module at n = 2, have no zero entry at all
KERNEL_SETUPS = ["ordinary_p2", "ordinary_p3", "rank6_two_slope",
                 "four_slope_rank8", "split_dense", "sigma_twisted_dense"]


@pytest.mark.parametrize("name", KERNEL_SETUPS)
def test_twisted_frobenius_matches_series_matrix_form(name):
    ctx, X, B, conn = _kernel_setup(name)
    u = universal_element_reference(X, B, conn.dmax)
    rng = random.Random(1900 + ctx.p)
    vectors = [[TruncatedSeries.constant(ring(ctx), B.n, conn.dmax, x)
                for x in col] for col in ring(ctx).identity(X.rank)]
    vectors += [_seeded_series_vector(ctx, B.n, conn.dmax, X.rank, rng)
                for _ in range(6)]
    for vec in vectors:
        got = apply_twisted_frobenius(X, B, vec)
        want = _series_mat_vec_reference(u, _frobenius_image_reference(X,
                                                                        vec))
        assert [(s.coeffs, s.valid) for s in got] == \
            [(s.coeffs, s.valid) for s in want]


def _nabla_reference(conn, vec, i):
    R = ring(conn.crystal.ctx)
    r = conn.crystal.rank
    out = [s.partial(i) for s in vec]
    for l, v in enumerate(conn.basis):
        w_li = conn.w[(l, i)]
        if w_li.is_zero():
            continue
        evec = _series_mat_vec_reference(
            [[TruncatedSeries.constant(R, conn.B.n, conn.dmax, x)
              for x in row] for row in vec_to_mat(v, r)], vec)
        out = [o + e * w_li for o, e in zip(out, evec)]
    return out


@pytest.mark.parametrize("name", KERNEL_SETUPS)
def test_nabla_matches_constant_matrix_form(name):
    # nabla on raw matrix entries gives the coefficients and validity
    # windows of the former constant-series products; entries of vec
    # carry different windows, and zero entries keep theirs
    ctx, X, B, conn = _kernel_setup(name)
    rng = random.Random(4200)
    vectors = []
    for _ in range(4):
        vec = []
        for k in range(X.rank):
            expo = [0] * B.n
            if k % 3:
                expo[0] = rng.randrange(3)
                if B.n > 1:
                    expo[1] = rng.randrange(2)
            coeffs = {} if k % 3 == 0 else {tuple(expo): raw(
                ctx, [rng.randrange(ctx.pN) for _ in range(ctx.n)])}
            vec.append(TruncatedSeries(ring(ctx), B.n, conn.dmax, coeffs,
                                       valid=rng.randrange(conn.dmax + 1)))
        vectors.append(vec)
    vectors += [_seeded_series_vector(ctx, B.n, conn.dmax, X.rank, rng)
                for _ in range(2)]
    for vec in vectors:
        for i in range(B.n):
            got = _nabla(conn, vec, i)
            want = _nabla_reference(conn, vec, i)
            assert [(s.coeffs, s.valid) for s in got] == \
                [(s.coeffs, s.valid) for s in want]


# ---------------------------------------------------------------------------
# correction factor


def test_divided_power_values():
    ctx = make_context(2, 1, 20)
    R = ring(ctx)
    y = ctx.scalar(2)
    assert as_tuple(R, divided_power(R, raw(ctx, y), 0)) == ctx.scalar(1)
    assert as_tuple(R, divided_power(R, raw(ctx, y), 1)) == y
    # 4/2
    assert as_tuple(R, divided_power(R, raw(ctx, y), 2)) == ctx.scalar(2)
    ctx3 = make_context(3, 1, 20)
    R3 = ring(ctx3)
    y3 = ctx3.scalar(3)
    # 3^2 / 2! = 9 * inverse(2)
    assert as_tuple(R3, divided_power(R3, raw(ctx3, y3), 2)) == \
        ctx3.mul(ctx3.scalar(9), ctx3.unit_inverse(ctx3.scalar(2)))


def test_correction_factor_teichmuller_is_identity():
    ctx, X, O, T, B, conn = ordinary_setup(2, 24, 8)
    # Teichmuller coordinates have sigma(z) = z^p exactly
    z = [raw(ctx, ctx.teichmuller((1,)))]
    out = correction_factor(X, conn, z)
    R = ring(ctx)
    g = out["matrix"]
    for i in range(2):
        for j in range(2):
            want = R.one if i == j else R.zero
            assert g[i][j] == want


def test_correction_factor_zero_basis_is_identity():
    ctx = make_context(2, 1, 24)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    B = DeformationBasis([[0] * 4], O)
    conn = solve_connection(X, O, B, 8)
    out = correction_factor(X, conn, [raw(ctx, 5)])
    R = ring(ctx)
    g = out["matrix"]
    for i in range(2):
        for j in range(2):
            want = R.one if i == j else R.zero
            assert g[i][j] == want


def test_correction_factor_at_p():
    ctx, X, O, T, B, conn = ordinary_setup(2, 24, 8)
    R = ring(ctx)
    out = correction_factor(X, conn, [raw(ctx, 2)])
    assert out["unit_mod_p"]
    assert out["defect_in_E_mod_p2"]
    assert all(v >= 1 for v in out["y_valuations"])
    # oracle: with a single square-zero generator the transport collapses
    # to g[0][1] = sum_{j >= 1} (d/dx)^(j-1) w evaluated at z, times
    # y^j / j! (one one-form application, then plain derivatives)
    z = ctx.scalar(2)
    y = ctx.sub(ctx.frobenius(z), ctx.mul(z, z))   # = 2 - 4 = -2
    w = conn.w[(0, 0)]
    coeff = ctx.scalar(0)
    deriv = w
    j = 1
    while not deriv.is_zero():
        coeff = ctx.add(coeff, ctx.mul(
            as_tuple(R, deriv.evaluate(TruncatedSeries.power_table(
                R, [raw(ctx, z)], deriv.dmax))),
            as_tuple(R, divided_power(R, raw(ctx, y), j))))
        deriv = deriv.partial(0)
        j += 1
    g = [[as_tuple(R, x) for x in row] for row in out["matrix"]]
    assert g[0][1] == coeff
    assert ctx.is_zero(g[1][0])
    assert g[0][0] == ctx.scalar(1) and g[1][1] == ctx.scalar(1)


def test_correction_factor_leaves_no_cycles():
    # the derivative walk holds no reference cycle, so once the caller
    # drops the crystal and the connection, nothing of them is left for
    # the cycle collector
    ctx, X, O, T, B, conn = ordinary_setup(2, 24, 8)
    z = [raw(ctx, 2)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        correction_factor(X, conn, z)
        del X, O, T, B, conn
        gc.collect()
        left = [x for x in gc.garbage
                if isinstance(x, (FIsocrystal, TruncatedSeries))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def test_connection_basis_independence():
    # two deformation tuples spanning the same tangent image give equal
    # Kodaira-Spencer images, and both one-forms live in the lattice span
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    T = TangentSpace(X)
    B1 = select_deformation_basis(O, T)
    # recombine: v'_i = v_i + 2 v_{i+1 mod n} spans the same classes
    n = B1.n
    vecs2 = []
    vectors = B1.vectors
    for i in range(n):
        v = vectors[i]
        w = vectors[(i + 1) % n]
        vecs2.append([ctx.add(a, ctx.mul_int(b, 2)) for a, b in zip(v, w)])
    B2 = DeformationBasis(vecs2, O)
    conn1 = solve_connection(X, O, B1, 4)
    conn2 = solve_connection(X, O, B2, 4)
    d1, e1 = kodaira_spencer_image(conn1, T)
    d2, e2 = kodaira_spencer_image(conn2, T)
    assert d1 == d2
    from dieudonne.lattices import residue_spaces_equal
    assert residue_spaces_equal(ctx, e1, e2)
    # both forms are carried by the basis of O by construction; check the
    # recursion residual of the second too
    for (series, window) in recursion_residual(conn2).values():
        assert series.is_zero_through(window)


def test_series_multivariate_evaluate():
    ctx = make_context(3, 1, 12)
    R = ring(ctx)
    x = TruncatedSeries.variable(R, 2, 5, 0)
    y = TruncatedSeries.variable(R, 2, 5, 1)
    s = x * x * y + y * raw(ctx, 2) + TruncatedSeries.constant(
        R, 2, 5, raw(ctx, 7))
    val = s.evaluate(
        TruncatedSeries.power_table(R, [raw(ctx, 2), raw(ctx, 3)], 5))
    assert as_tuple(R, val) == ctx.scalar(4 * 3 + 6 + 7)


def test_zero_basis_flat_everything():
    # with no deformation directions the connection, its tangent image,
    # and the induced form on E + W(k)t are all flat
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    B = DeformationBasis([[0] * 4], O)
    conn = solve_connection(X, O, B, 8)
    split = hodge_splitting_from_kernel(X)
    hor = verify_horizontality(X, conn, split)
    assert hor["vanishes"]
    dim, _ = kodaira_spencer_image(conn, TangentSpace(X))
    assert dim == 0
    t = lie_element(O, S)
    report = induced_connection_tilde(conn, t)
    assert all(not forms for forms in report["t_form"].values())


# ---------------------------------------------------------------------------
# the session's connection


def _count_solves(monkeypatch):
    from dieudonne import problems
    calls = []
    real = problems.solve_connection

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(problems, "solve_connection", counted)
    return calls


def test_connection_solved_once_per_session(monkeypatch):
    # report-all's connection and correction analyses read one one-form
    from dieudonne.problems import ANALYSES, run
    calls = _count_solves(monkeypatch)
    report = run(load_corpus("ordinary_rank2"), ANALYSES)
    assert report["all_ok"]
    assert len(calls) == 1


def test_connection_failure_is_not_cached(monkeypatch):
    # O_minus of three slopes is not square-zero: each analysis solves
    # again and reports the same error
    import json

    from dieudonne.problems import emit_spec, parse_dict, run
    doc = json.loads(emit_spec(load_corpus("three_slope_rank4")))
    del doc["slope_pairs"]
    calls = _count_solves(monkeypatch)
    report = run(parse_dict(doc), ["connection", "correction"])
    errors = [report["analyses"][name]["error"]
              for name in ("connection", "correction")]
    assert errors[0] == errors[1]
    assert errors[0].startswith("HypothesisViolated: E is not square-zero")
    assert len(calls) == 2
