"""Connection solver, horizontality, trivializer, and correction-factor
tests.  The golden series for the ordinary rank-2 module at p = 2 with
degree bound 8 is -1 - x - x^3 - x^7 (partial sums of -sum x^(2^k - 1)),
checked independently by substitution into the defining recursion."""

import random

import pytest

from dieudonne import matrix
from dieudonne.cli import corpus_names, load_corpus
from dieudonne.witt import make_context, teichmuller
from dieudonne.isocrystal import (slope_split, end_decompose, newton_slopes,
                                  vec_to_mat)
from dieudonne.core import (TangentSpace, hodge_splitting_from_kernel,
                            largest_sub_dieudonne, lie_element, nu_image)
from dieudonne.series import TruncatedSeries
from dieudonne.deformation import (
    DeformationBasis, correction_factor, divided_power,
    induced_connection_tilde, kodaira_spencer_image, prepare_trivializer,
    recursion_residual, select_deformation_basis, solve_connection,
    trivialize_at_point, universal_element, verify_horizontality,
    _combine, _nabla, _series_mat_vec,
)
from dieudonne.errors import HypothesisViolated, NonConvergence
from dieudonne.matrix import ring
from dieudonne.problems import Session

from instances import ordinary_rank2, rank6_two_slope, three_slope_rank4


# ---------------------------------------------------------------------------
# series arithmetic


def test_series_ring_ops():
    ctx = make_context(2, 1, 16)
    x = TruncatedSeries.variable(ctx, 2, 6, 0)
    y = TruncatedSeries.variable(ctx, 2, 6, 1)
    s = (x + y) * (x - y)
    assert s.coefficient((2, 0)) == ctx.one
    assert s.coefficient((0, 2)) == -ctx.one
    assert s.coefficient((1, 1)).is_zero()


def test_series_truncation():
    ctx = make_context(2, 1, 16)
    x = TruncatedSeries.variable(ctx, 1, 4, 0)
    s = x * x * x
    assert not s.is_zero()
    assert (s * s).is_zero()  # degree 6 > 4


def test_series_frobenius_lift():
    ctx = make_context(2, 2, 12)
    g = ctx.generator
    x = TruncatedSeries.variable(ctx, 1, 8, 0)
    s = x * g
    t = s.frobenius_lift()
    assert t.coefficient((2,)) == g.frobenius()
    assert t.coefficient((1,)).is_zero()


def test_series_partial_and_evaluate():
    ctx = make_context(3, 1, 12)
    x = TruncatedSeries.variable(ctx, 1, 6, 0)
    s = x * x * ctx.scalar(2) + x
    ds = s.partial(0)
    assert ds.coefficient((1,)) == ctx.scalar(4)
    assert ds.coefficient((0,)) == ctx.one
    assert s.evaluate([ctx.scalar(3)]) == ctx.scalar(21)


# ---------------------------------------------------------------------------
# connection solver


def ordinary_setup(p, N, dmax):
    ctx = make_context(p, 1, N)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
    T = TangentSpace(X)
    B = select_deformation_basis(O, T)
    conn = solve_connection(X, O, B, dmax)
    return ctx, X, O, T, B, conn


def test_connection_golden_p2():
    ctx, X, O, T, B, conn = ordinary_setup(2, 20, 8)
    w = conn.w[(0, 0)]
    # -1 - x - x^3 - x^7
    assert w.coefficient((0,)) == -ctx.one
    assert w.coefficient((1,)) == -ctx.one
    assert w.coefficient((3,)) == -ctx.one
    assert w.coefficient((7,)) == -ctx.one
    degrees = w.support_degrees()
    assert degrees == [0, 1, 3, 7]


def test_connection_golden_p3():
    ctx, X, O, T, B, conn = ordinary_setup(3, 20, 8)
    w = conn.w[(0, 0)]
    # -1 - x^2 - x^8
    assert w.support_degrees() == [0, 2, 8]
    for d in (0, 2, 8):
        assert w.coefficient((d,)) == -ctx.one


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
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
    B = DeformationBasis([[ctx.zero] * 4], O)
    conn = solve_connection(X, O, B, 8)
    assert conn.w[(0, 0)].is_zero()


def test_connection_rejects_non_square_zero():
    ctx = make_context(5, 1, 24)
    X = three_slope_rank4(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
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
    u = universal_element(X, B, 8)
    for i in range(2):
        for j in range(2):
            c0 = u[i][j].constant_term()
            assert c0 == (ctx.one if i == j else ctx.zero)


def test_horizontality_ordinary():
    for p in (2, 3):
        ctx, X, O, T, B, conn = ordinary_setup(p, 20, 8)
        split = hodge_splitting_from_kernel(X)
        report = verify_horizontality(X, conn, split)
        assert report["vanishes"]
        assert report["degree_window"] >= 1


def test_horizontality_detects_perturbation():
    ctx, X, O, T, B, conn = ordinary_setup(2, 20, 8)
    x1 = TruncatedSeries.variable(ctx, 1, 8, 0)
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
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
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
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
    T = TangentSpace(X)
    B = select_deformation_basis(O, T)
    out = trivialize_at_point(X, O, B, [0])
    assert out["steps"] == 0
    u = ring(ctx).wrap_mat(out["u_infinity"])
    assert u[0][0] == ctx.one and u[0][1].is_zero()


def test_trivialize_ordinary_unit_point():
    ctx = make_context(2, 1, 24)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
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
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
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
# verbatim: it multiplies out prod_k (1 + n_k) and its inverse on every
# lattice.  The library sums the orbit instead when the workspace found E
# square-zero, and must agree entry for entry.

NON_ISOCLINIC = ["elliptic_polarized", "example_1_7", "four_slope_rank8",
                 "ordinary_rank2", "symplectic_ordinary_c2",
                 "three_slope_rank4"]


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
    taus = R.raw_col([teichmuller(big, coord) for coord in point])
    n0 = _combine(R, taus, bvecs, r * r)
    ident = R.identity(r)
    u_h = R.add_mat(ident, vec_to_mat(n0, r))
    # backward-orbit coordinates: c_k = C^k c_0 on the basis of E
    coords = bE.solve(n0, 0)
    if coords is None:
        raise HypothesisViolated("the point twist does not lie in E")
    Cmap = ws["Cmap"]
    ech_rows = ws["ech_rows"]
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


def _nabla_reference(conn, vec, i):
    ctx = conn.crystal.ctx
    r = conn.crystal.rank
    out = [s.partial(i) for s in vec]
    for l, v in enumerate(conn.basis):
        w_li = conn.w[(l, i)]
        if w_li.is_zero():
            continue
        evec = _series_mat_vec(
            [[TruncatedSeries.constant(ctx, conn.B.n, conn.dmax, x)
              for x in row] for row in vec_to_mat(v, r)], vec)
        out = [o + e * w_li for o, e in zip(out, evec)]
    return out


def test_nabla_matches_constant_matrix_form():
    # nabla on raw matrix entries gives the coefficients and validity
    # windows of the former constant-series products; entries of vec
    # carry different windows, and zero entries keep theirs
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
    B = select_deformation_basis(O, TangentSpace(X))
    conn = solve_connection(X, O, B, 4)
    rng = random.Random(4200)
    for _ in range(4):
        vec = []
        for k in range(X.rank):
            coeffs = {} if k % 3 == 0 else {
                (rng.randrange(3), rng.randrange(2), 0):
                ctx.scalar([rng.randrange(ctx.pN) for _ in range(3)])}
            vec.append(TruncatedSeries(ctx, B.n, 4, coeffs,
                                       valid=rng.randrange(5)))
        for i in range(B.n):
            got = _nabla(conn, vec, i)
            want = _nabla_reference(conn, vec, i)
            assert [(s.coeffs, s.valid) for s in got] == \
                [(s.coeffs, s.valid) for s in want]


# ---------------------------------------------------------------------------
# correction factor


def test_divided_power_values():
    ctx = make_context(2, 1, 20)
    y = ctx.scalar(2)
    assert divided_power(ctx, y, 0) == ctx.one
    assert divided_power(ctx, y, 1) == y
    assert divided_power(ctx, y, 2) == ctx.scalar(2)  # 4 / 2
    ctx3 = make_context(3, 1, 20)
    y3 = ctx3.scalar(3)
    # 3^2 / 2! = 9 * inverse(2)
    assert divided_power(ctx3, y3, 2) == ctx3.scalar(9) * \
        ctx3.scalar(2).inverse()


def test_correction_factor_teichmuller_is_identity():
    ctx, X, O, T, B, conn = ordinary_setup(2, 24, 8)
    # Teichmuller coordinates have sigma(z) = z^p exactly
    z = [teichmuller(ctx, 1)]
    out = correction_factor(X, conn, z)
    g = out["matrix"]
    for i in range(2):
        for j in range(2):
            want = ctx.one if i == j else ctx.zero
            assert g[i][j] == want


def test_correction_factor_zero_basis_is_identity():
    ctx = make_context(2, 1, 24)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
    B = DeformationBasis([[ctx.zero] * 4], O)
    conn = solve_connection(X, O, B, 8)
    out = correction_factor(X, conn, [ctx.scalar(5)])
    g = out["matrix"]
    for i in range(2):
        for j in range(2):
            want = ctx.one if i == j else ctx.zero
            assert g[i][j] == want


def test_correction_factor_at_p():
    ctx, X, O, T, B, conn = ordinary_setup(2, 24, 8)
    out = correction_factor(X, conn, [ctx.scalar(2)])
    assert out["unit_mod_p"]
    assert out["defect_in_E_mod_p2"]
    assert all(v >= 1 for v in out["y_valuations"])
    # oracle: with a single square-zero generator the transport collapses
    # to g[0][1] = sum_{j >= 1} (d/dx)^(j-1) w evaluated at z, times
    # y^j / j! (one one-form application, then plain derivatives)
    z = ctx.scalar(2)
    y = z.frobenius() - z * z   # = 2 - 4 = -2
    w = conn.w[(0, 0)]
    coeff = ctx.zero
    deriv = w
    j = 1
    while not deriv.is_zero():
        coeff = coeff + deriv.evaluate([z]) * divided_power(ctx, y, j)
        deriv = deriv.partial(0)
        j += 1
    g = out["matrix"]
    assert g[0][1] == coeff
    assert g[1][0].is_zero()
    assert g[0][0] == ctx.one and g[1][1] == ctx.one


def test_connection_basis_independence():
    # two deformation tuples spanning the same tangent image give equal
    # Kodaira-Spencer images, and both one-forms live in the lattice span
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
    T = TangentSpace(X)
    B1 = select_deformation_basis(O, T)
    # recombine: v'_i = v_i + 2 v_{i+1 mod n} spans the same classes
    n = B1.n
    vecs2 = []
    vectors = ring(ctx).wrap_mat(B1.vectors)
    for i in range(n):
        v = list(vectors[i])
        w = vectors[(i + 1) % n]
        vecs2.append([v[k] + w[k] * 2 for k in range(len(v))])
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
    x = TruncatedSeries.variable(ctx, 2, 5, 0)
    y = TruncatedSeries.variable(ctx, 2, 5, 1)
    s = x * x * y + y * ctx.scalar(2) + TruncatedSeries.constant(
        ctx, 2, 5, ctx.scalar(7))
    val = s.evaluate([ctx.scalar(2), ctx.scalar(3)])
    assert val == ctx.scalar(4 * 3 + 6 + 7)


def test_zero_basis_flat_everything():
    # with no deformation directions the connection, its tangent image,
    # and the induced form on E + W(k)t are all flat
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(X, S)
    O = largest_sub_dieudonne(E.V_minus, X, mode="negative")
    B = DeformationBasis([[ctx.zero] * 4], O)
    conn = solve_connection(X, O, B, 8)
    split = hodge_splitting_from_kernel(X)
    hor = verify_horizontality(X, conn, split)
    assert hor["vanishes"]
    dim, _ = kodaira_spencer_image(conn, TangentSpace(X))
    assert dim == 0
    t = lie_element(O, S)
    report = induced_connection_tilde(conn, t)
    assert all(not forms for forms in report["t_form"].values())
