"""Stratum dimension tests: the constant-locus formula, group strata,
the symplectic closed form, and Cayley elements."""

import pytest

from dieudonne.matrix import ring
from dieudonne.witt import make_context
from dieudonne.isocrystal import slope_split, end_decompose, dim_codim
from dieudonne.core import (TangentSpace, hodge_splitting,
                            hodge_splitting_from_kernel)
from dieudonne.strata import (
    cayley_element,
    group_custom, group_full_gl, group_symplectic, manin_symmetry_check,
    n_g_mu, polarized_closed_form, polarized_dim, strata_dims,
    traverso_dimension,
)
from dieudonne.errors import (CertificateFailed, CertificateInvalid,
                              SlopeSymmetryViolated, WrongCharacteristic)

from instances import (elliptic_gram, elliptic_ordinary, ordinary_rank2,
                       rank6_two_slope, supersingular_rank2,
                       symplectic_gram_c2, symplectic_ordinary_c2,
                       three_slope_rank4)


def setup(ctx, mk):
    X = mk(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    T = TangentSpace(X)
    return X, S, E, T


def test_traverso_ordinary():
    X, S, E, T = setup(make_context(2, 1, 24), ordinary_rank2)
    lat, closed = traverso_dimension(E, T)
    assert lat == closed == 1


def test_traverso_isoclinic_zero():
    X, S, E, T = setup(make_context(2, 1, 24), supersingular_rank2)
    lat, closed = traverso_dimension(E, T)
    assert lat == closed == 0


def test_traverso_rank6():
    X, S, E, T = setup(make_context(2, 3, 40), rank6_two_slope)
    lat, closed = traverso_dimension(E, T)
    assert lat == closed == 3


def test_traverso_three_slopes():
    X, S, E, T = setup(make_context(5, 1, 30), three_slope_rank4)
    lat, closed = traverso_dimension(E, T)
    assert lat == closed == 3


def test_codim_complement_identity():
    # c d - tau equals the absolute-difference half-sum form
    for ctx, mk in [(make_context(2, 1, 24), ordinary_rank2),
                    (make_context(2, 3, 40), rank6_two_slope),
                    (make_context(5, 1, 30), three_slope_rank4),
                    (make_context(3, 1, 24), supersingular_rank2)]:
        X, S, E, T = setup(ctx, mk)
        c, d = dim_codim(X)
        _, tau = traverso_dimension(E, T)
        # per-slope codimension and dimension ((1 - a) r_a, a r_a)
        hodge = [((1 - a) * m, a * m) for (a, m) in S.slopes]
        half = sum(abs(ca * db - cb * da)
                   for (ca, da) in hodge for (cb, db) in hodge) / 2
        assert (sum(ca for ca, _ in hodge) * sum(da for _, da in hodge)
                - half == c * d - tau)


def test_full_gl_reproduces_traverso():
    X, S, E, T = setup(make_context(2, 1, 24), ordinary_rank2)
    gd = group_full_gl(X)
    split = hodge_splitting_from_kernel(X)
    rep = strata_dims(gd, E, split, T)
    assert rep.n_G == 1  # c d block
    _, tau = traverso_dimension(E, T)
    assert rep.c_minus_G == tau
    assert rep.tangent_dim == tau
    assert rep.fact_a_consistent


def test_symplectic_elliptic():
    ctx = make_context(3, 1, 24)
    X, S, E, T = setup(ctx, elliptic_ordinary)
    gram = elliptic_gram(ctx)
    gd = group_symplectic(X, gram)
    split = hodge_splitting_from_kernel(X)
    NG, ng_basis = n_g_mu(gd, split)
    assert NG.rank == len(ng_basis) == 1  # d(d+1)/2 with d = 1
    lat, closed = polarized_dim(E, split, gram, T)
    assert lat == closed == 1


def test_symplectic_c2_ordinary():
    ctx = make_context(3, 1, 30)
    X, S, E, T = setup(ctx, symplectic_ordinary_c2)
    gram = symplectic_gram_c2(ctx)
    gd = group_symplectic(X, gram)
    split = hodge_splitting_from_kernel(X)
    NG, ng_basis = n_g_mu(gd, split)
    assert NG.rank == len(ng_basis) == 3  # d(d+1)/2 with d = 2
    rep = strata_dims(gd, E, split, T)
    assert rep.c_minus_G == 3
    assert rep.tangent_dim == 3
    assert rep.fact_a_lhs and rep.fact_a_rhs
    # the trace-orthogonal complement certifies the tangent identity
    assert rep.complement_found
    assert rep.fact_b_holds
    lat, closed = polarized_dim(E, split, gram, T)
    assert lat == closed == 3
    # the unconstrained dimension is 4 = 2*2
    _, tau = traverso_dimension(E, T)
    assert tau == 4


def test_symplectic_supersingular_c2():
    ctx = make_context(3, 1, 30)
    p = 3
    # supersingular c = d = 2: two principally polarized supersingular
    # blocks; slopes {1/2: 4}, isoclinic, so everything degenerates
    from dieudonne.isocrystal import FIsocrystal
    rows = [[0, -p, 0, 0], [1, 0, 0, 0], [0, 0, 0, -p], [0, 0, 1, 0]]
    X = FIsocrystal.from_int_matrix(ctx, rows)
    S = slope_split(X)
    E = end_decompose(S)
    T = TangentSpace(X)
    gram = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    split = hodge_splitting(X, [[0, 1, 0, 0], [0, 0, 0, 1]])
    lat, closed = polarized_dim(E, split, gram, T)
    assert lat == closed == 0


def test_manin_symmetry_violation():
    X, S, E, T = setup(make_context(5, 1, 30), three_slope_rank4)
    manin_symmetry_check(S)  # {0, 1/2, 1} with (1, 2, 1) is symmetric
    # {0:1, 1/2:2, 1:2} breaks the multiplicity matching
    from dieudonne.isocrystal import FIsocrystal
    ctx = make_context(5, 1, 30)
    p = 5
    rows = [[0] * 5 for _ in range(5)]
    rows[0][0] = 1
    rows[2][1] = 1
    rows[1][2] = p
    rows[3][3] = p
    rows[4][4] = p
    X2 = FIsocrystal.from_int_matrix(ctx, rows)
    S2 = slope_split(X2)
    with pytest.raises(SlopeSymmetryViolated):
        manin_symmetry_check(S2)


def test_polarized_closed_form_values():
    X, S, E, T = setup(make_context(3, 1, 30), symplectic_ordinary_c2)
    assert polarized_closed_form(S) == 3
    X2, S2, _, _ = setup(make_context(3, 1, 24), elliptic_ordinary)
    assert polarized_closed_form(S2) == 1


def test_custom_group_certificates():
    ctx = make_context(2, 1, 24)
    X, S, E, T = setup(ctx, ordinary_rank2)
    # diagonal torus Lie algebra: spanned by E_00 and E_11
    basis = []
    for k in (0, 3):
        v = [0] * 4
        v[k] = 1
        basis.append(v)
    gd = group_custom(X, basis)
    assert gd.phi_stable
    split = hodge_splitting_from_kernel(X)
    NG, ng_basis = n_g_mu(gd, split)
    assert NG.rank == len(ng_basis) == 0  # torus has no weight-one part
    rep = strata_dims(gd, E, split, T)
    assert rep.c_minus_G == 0
    assert rep.tangent_dim == 0


def test_cayley_elliptic_p3():
    ctx = make_context(3, 1, 24)
    X, S, E, T = setup(ctx, elliptic_ordinary)
    gram = elliptic_gram(ctx)
    gd = group_symplectic(X, gram)
    # the negative generator: sends e2 to e1
    v = [0] * 4
    v[0 * 2 + 1] = 1
    out = cayley_element(gd, E, [v], dmax=6)
    w = out["matrix"]
    R = ring(ctx)
    # 1 - 2 v x since v^2 = 0
    assert R.wrap_col([w[0][0].constant_term()]) == [ctx.one]
    assert R.wrap_col([w[0][1].coefficient((1,))]) == [ctx.scalar(-2)]
    assert out["coefficients_in_O_minus"]
    assert out["symplectic_window"] >= 1


def test_cayley_rejects_p2():
    ctx = make_context(2, 1, 24)
    X, S, E, T = setup(ctx, ordinary_rank2)
    gram = elliptic_gram(ctx)
    gd = GroupDataStub = None
    from dieudonne.strata import GroupData
    gd = GroupData("symplectic", X,
                   None, gram=[[ctx.scalar(x) for x in r] for r in
                               [[0, 1], [-1, 0]]])
    with pytest.raises(WrongCharacteristic):
        cayley_element(gd, E, [[0, 1, 0, 0]], dmax=4)


def test_cayley_rejects_non_lie_vector():
    ctx = make_context(3, 1, 24)
    X, S, E, T = setup(ctx, elliptic_ordinary)
    gram = elliptic_gram(ctx)
    gd = group_symplectic(X, gram)
    bad = [1, 0, 0, 0]  # E_00 is not in sp_2
    with pytest.raises(CertificateFailed):
        cayley_element(gd, E, [bad], dmax=4)


def test_symplectic_certificate_rejects_bad_form():
    ctx = make_context(3, 1, 24)
    X, S, E, T = setup(ctx, elliptic_ordinary)
    with pytest.raises(CertificateInvalid):
        group_symplectic(X, [[0, 1], [1, 0]])  # symmetric, not alternating
    with pytest.raises(CertificateInvalid):
        # perfect alternating but not Frobenius-compatible at twist p:
        # pair a unit-root line with itself through a second unit line
        from dieudonne.isocrystal import FIsocrystal
        X2 = FIsocrystal.from_int_matrix(ctx, [[1, 0], [0, 1]])
        group_symplectic(X2, [[0, 1], [-1, 0]])


def test_cayley_zero_vector_is_identity():
    ctx = make_context(3, 1, 24)
    X, S, E, T = setup(ctx, elliptic_ordinary)
    gd = group_symplectic(X, elliptic_gram(ctx))
    out = cayley_element(gd, E, [[0] * 4], dmax=6)
    w = out["matrix"]
    for i in range(2):
        for j in range(2):
            s = w[i][j]
            if i == j:
                assert ring(ctx).wrap_col([s.constant_term()]) == [ctx.one]
                assert s.is_zero_through(s.valid) or len(s.coeffs) == 1
            else:
                assert s.is_zero()
