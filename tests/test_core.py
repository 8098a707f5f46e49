"""Tests for the tangent space, Hodge splittings, stable lattices, axiom
checks, and Lie elements."""

import itertools
import random

import pytest

from dieudonne.witt import make_context
from dieudonne.lattices import Lattice, SemilinearMap
from dieudonne.isocrystal import FIsocrystal, end_decompose, slope_split
from dieudonne.core import (
    _nonzero_product, TangentSpace, check_axioms, codim_of_dieudonne, hodge_splitting,
    hodge_splitting_from_kernel, largest_sub_dieudonne,
    lie_element, nu_image, sigma_phi, smallest_super_dieudonne,
    star_property_holds,
)
from dieudonne.errors import ValidationFailed
from dieudonne.matrix import ring

from instances import (
    A_EXP, B_EXP, LAMBDA_SET, PERM3, hom_block_vector, ordinary_rank2,
    non_split_rank6, rank6_f1_indices, rank6_two_slope, supersingular_rank2,
    three_slope_rank4,
)


def f1_columns_from_indices(ctx, r, indices):
    cols = []
    for i in indices:
        col = [0] * r
        col[i] = 1
        cols.append(col)
    return cols


def test_tangent_dimension():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    T = TangentSpace(X)
    assert T.dim == 1
    ctx6 = make_context(2, 3, 40)
    X6 = rank6_two_slope(ctx6)
    assert TangentSpace(X6).dim == 9


def test_nu_of_identity_is_zero():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    T = TangentSpace(X)
    ident = Lattice.from_columns(
        ctx, 4, [hom_block_vector(2, 0, 0)])
    one_mat = [hom_block_vector(2, 0, 0)[k] + hom_block_vector(
        2, 1, 1)[k] for k in range(4)]
    scalar_line = Lattice.from_columns(ctx, 4, [one_mat])
    dim, _ = nu_image(scalar_line, T)
    assert dim == 0


def test_nu_of_vminus_ordinary():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    T = TangentSpace(X)
    dim, _ = nu_image(E.V_minus, T)
    assert dim == 1


def test_star_property_random():
    rng = random.Random(23)
    for ctx, mk in [(make_context(2, 1, 20), ordinary_rank2),
                    (make_context(3, 1, 20), supersingular_rank2),
                    (make_context(2, 3, 30), rank6_two_slope)]:
        X = mk(ctx)
        T = TangentSpace(X)
        r = X.rank
        for _ in range(25):
            rows = [[ctx.scalar([rng.randrange(ctx.pN)
                                 for _ in range(ctx.n)])
                     for _ in range(r)] for _ in range(r)]
            assert star_property_holds(X, T, rows)


def test_largest_sub_dieudonne_ordinary():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    assert O.equals(E.V_minus)
    assert O.rank == 1


def test_largest_sub_dieudonne_isoclinic_zero():
    ctx = make_context(2, 1, 20)
    X = supersingular_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    assert E.V_minus.rank == 0
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    assert O.rank == 0


def exponent_oracle_rank6():
    """Brute-force the smallest exponent matrix c making the span of
    p^{c_ij} (e_i tensor f_j^*) stable under both p*conj(phi) and
    conj(phi)^{-1}; stable exponent matrices are closed under entrywise
    minimum, so the least one is found by exhaustive search."""
    perm = PERM3

    def stable(c):
        for i in range(3):
            for j in range(3):
                # p phi: exponent 1 + a_i - b_j, lands at (perm i, perm j)
                if c[perm[i]][perm[j]] > c[i][j] + 1 + A_EXP[i] - B_EXP[j]:
                    return False
                # phi^{-1}: lands at (inv i, inv j) with exponent
                # b_{inv j} - a_{inv i}
                ii = perm.index(i)
                jj = perm.index(j)
                if c[ii][jj] > c[i][j] + B_EXP[jj] - A_EXP[ii]:
                    return False
        return True

    best = None
    for flat in itertools.product(range(3), repeat=9):
        c = [list(flat[3 * i:3 * i + 3]) for i in range(3)]
        if stable(c):
            if best is None:
                best = c
            else:
                best = [[min(best[i][j], c[i][j]) for j in range(3)]
                        for i in range(3)]
    assert best is not None and stable(best)
    return best


def test_largest_sub_dieudonne_rank6_matches_oracle():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    assert E.V_minus.rank == 9
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    assert O.rank == 9
    cmat = exponent_oracle_rank6()
    gens = []
    for i in range(3):
        for j in range(3):
            vec = hom_block_vector(6, i, 3 + j)
            gens.append([x * (ctx.p ** cmat[i][j]) for x in vec])
    want = Lattice.from_columns(ctx, 36, gens)
    assert O.equals(want)


def test_monotonicity_and_maximality():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    # any p-power multiple of O is stable, so it must sit inside O
    pO = Lattice.from_columns(
        ctx, 36, [[ctx.mul_int(x, ctx.p) for x in c] for c in O.cols])
    assert O.contains(pO)
    assert largest_sub_dieudonne(pO, E.carrier("minus")).equals(pO)
    # monotone in the ambient bound
    rng = random.Random(31)
    cols = list(O.cols)
    sub = Lattice.from_columns(
        ctx, 36, [c for k, c in enumerate(cols) if k % 2 == 0])
    O_sub = largest_sub_dieudonne(sub, E.carrier("minus"))
    assert O.contains(O_sub)


def lambda_lattice(ctx):
    gens = [hom_block_vector(6, i, 3 + j) for (i, j) in LAMBDA_SET]
    return Lattice.from_columns(ctx, 36, gens)


def test_axioms_rank6_lambda():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    E0 = lambda_lattice(ctx)
    split = hodge_splitting(
        X, f1_columns_from_indices(ctx, 6, rank6_f1_indices()))
    report = check_axioms(E0, E, split)
    assert report.axiom_i and report.axiom_ii
    assert report.axiom_iii and report.axiom_iv
    assert report.ranks["E"] == 6
    assert report.ranks["F0(E)"] == 4
    assert report.ranks["F-1(E)"] == 2


def test_axioms_rank6_full_E_fails_grading():
    # the largest lattice satisfies (i)-(ii) but not the graded axioms
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    split = hodge_splitting(
        X, f1_columns_from_indices(ctx, 6, rank6_f1_indices()))
    report = check_axioms(O, E, split)
    assert report.axiom_i and report.axiom_ii
    assert not report.axiom_iii


def test_axiom_ii_fails_with_middle_slope():
    ctx = make_context(5, 1, 24)
    X = three_slope_rank4(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    report = check_axioms(E.V_minus, E)
    assert not report.axiom_ii
    assert "axiom_ii" in report.witnesses


def test_ordinary_axioms_pass():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    split = hodge_splitting_from_kernel(X)
    report = check_axioms(O, E, split)
    assert report.all_pass()


def test_codim_identities():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    T = TangentSpace(X)
    assert codim_of_dieudonne(O, E.carrier("minus")) == 1
    assert nu_image(O, T)[0] == 1


def test_codim_rank6():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    T = TangentSpace(X)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    assert codim_of_dieudonne(O, E.carrier("minus")) == 3
    assert nu_image(O, T)[0] == 3
    E0 = lambda_lattice(ctx)
    assert codim_of_dieudonne(E0, E.carrier("minus")) == 2
    assert nu_image(E0, T)[0] == 2


def test_lie_element_ordinary():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    t = lie_element(O, S)
    R = ring(ctx)
    rows = t.rows
    # projection onto the slope-one line
    assert rows[0][0] == R.zero
    assert rows[1][1] == R.one


def test_lie_element_rank6():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    t = lie_element(O, S)
    R = ring(ctx)
    rows = t.rows
    # projection onto the second block along the first
    for i in range(3):
        assert rows[i][i] == R.zero
        assert rows[3 + i][3 + i] == R.one


def test_lie_element_validation_rejects_non_projector():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    bad = SemilinearMap(ctx, [[1, 1], [0, 1]])
    with pytest.raises(ValidationFailed):
        lie_element(O, S, user_t=bad)


def test_sigma_phi_ordinary():
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    split = hodge_splitting_from_kernel(X)
    s = sigma_phi(X, split)
    rows = s.rows
    assert s.denominator == 0
    assert rows == ((1, 0), (0, 1))


def test_sigma_phi_supersingular():
    ctx = make_context(2, 1, 20)
    X = supersingular_rank2(ctx)
    split = hodge_splitting_from_kernel(X)
    assert sigma_phi(X, split).rows == ((0, 1), (1, 0))


def test_splitting_passes_bugs_through(monkeypatch):
    # only the inverse's domain errors become SplittingInvalid
    def broken(*args):
        raise TypeError("a bug, not a splitting defect")

    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    split = hodge_splitting_from_kernel(X)
    monkeypatch.setattr("dieudonne.core.invert_matrix", broken)
    with pytest.raises(TypeError):
        sigma_phi(X, split)
    with pytest.raises(TypeError):
        hodge_splitting_from_kernel(X)


def test_sigma_phi_rank6_is_permutation():
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    split = hodge_splitting(
        X, f1_columns_from_indices(ctx, 6, rank6_f1_indices()))
    R = ring(ctx)
    rows = sigma_phi(X, split).rows
    for j in range(3):
        assert rows[PERM3[j]][j] == R.one
        assert rows[3 + PERM3[j]][3 + j] == R.one
    total = sum(1 for i in range(6) for j in range(6)
                if rows[i][j] != R.zero)
    assert total == 6


def test_smallest_super_dieudonne_fixed_point():
    # a lattice that is already Dieudonne comes back unchanged
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    back = smallest_super_dieudonne(O, E.carrier("minus"))
    assert back.equals(O)
    Op = largest_sub_dieudonne(E.V_plus, E.carrier("plus"))
    back2 = smallest_super_dieudonne(Op, E.carrier("plus"))
    assert back2.equals(Op)


def test_slopes_of_o_minus_in_unit_interval():
    from dieudonne.isocrystal import newton_slopes
    from dieudonne.lattices import restrict_map
    from dieudonne.isocrystal import end_frobenius
    for ctx, mk in [(make_context(2, 1, 24), ordinary_rank2),
                    (make_context(2, 3, 40), rank6_two_slope),
                    (make_context(5, 1, 24), three_slope_rank4)]:
        X = mk(ctx)
        S = slope_split(X)
        E = end_decompose(S)
        O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
        if O.rank == 0:
            continue
        pphi = end_frobenius(X).scale_p(1)
        sub = restrict_map(pphi, O)
        slopes = newton_slopes(FIsocrystal(ctx, sub))
        for (a, _) in slopes:
            assert 0 <= a < 1


def test_star_property_explicit_weight_one_element():
    # a weight-one block element that is non-zero mod p: conjugation by
    # the Frobenius leaves the integral endomorphisms, and its tangent
    # class is non-zero
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    T = TangentSpace(X)
    # F1 = span(e2); the weight-one block sends e2 to e1
    rows = [[0, 1], [0, 0]]
    assert star_property_holds(X, T, rows)
    # and the two sides individually: nu non-zero here
    assert not T.nu_is_zero(T.nu_matrix(ring(ctx).raw_mat(rows)))


def test_induced_tilde_rank6_with_supplied_projector():
    from dieudonne.deformation import (induced_connection_tilde,
                                       select_deformation_basis,
                                       solve_connection)
    ctx = make_context(2, 3, 40)
    X = rank6_two_slope(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    E0 = lambda_lattice(ctx)
    t_rows = [[1 if (i == j and i >= 3) else 0
               for j in range(6)] for i in range(6)]
    t = lie_element(E0, S, user_t=SemilinearMap(ctx, t_rows))
    T = TangentSpace(X)
    B = select_deformation_basis(E0, T)
    conn = solve_connection(X, E0, B, 4)
    report = induced_connection_tilde(conn, t)
    assert report["e_part_flat"] and report["t_lands_in_E"]


def test_axiom_i_fails_for_proper_sublattice():
    # p times the maximal lattice is stable but not maximal in its span
    ctx = make_context(2, 1, 20)
    X = ordinary_rank2(ctx)
    S = slope_split(X)
    E = end_decompose(S)
    O = largest_sub_dieudonne(E.V_minus, E.carrier("minus"))
    pO = Lattice.from_columns(
        ctx, 4, [[x * ctx.p for x in c] for c in O.cols])
    report = check_axioms(pO, E)
    assert not report.axiom_i
    assert report.axiom_ii


@pytest.mark.parametrize("kernel_split", [False, True])
def test_tangent_space_built_once_per_crystal(monkeypatch, kernel_split):
    # the session's tangent, the Hodge splitting (from hodge_f1 or from the
    # kernel of phi mod p) and the group strata all read one tangent space
    import json

    from dieudonne import core
    from dieudonne.cli import load_corpus
    from dieudonne.problems import emit_spec, parse_dict, run

    doc = json.loads(emit_spec(load_corpus("three_slope_rank4")))
    if kernel_split:
        del doc["hodge_f1"]
    calls = []
    real = core.TangentSpace.__init__

    def counted(self, crystal):
        calls.append(crystal)
        real(self, crystal)
    monkeypatch.setattr(core.TangentSpace, "__init__", counted)
    report = run(parse_dict(doc), ["axioms", "ominus", "strata", "traverso"])
    assert report["all_ok"]
    assert len(calls) == 1


def _nonzero_product_reference(ctx, r, vecs):
    """The former body: every pair, in order."""
    R = ring(ctx)
    mats = [[list(v[i * r:(i + 1) * r]) for i in range(r)] for v in vecs]
    for a, ma in enumerate(mats):
        for b, mb in enumerate(mats):
            if any(x != R.zero for row in R.mul_mat(ma, mb) for x in row):
                return a, b
    return None


def _block_vecs(ctx, rng, r, m, lower=False):
    """m flattened r x r matrices supported on the upper right block
    (square-zero together), one of them with a lower left entry too when
    ``lower``; entries carry random p-powers."""
    R = ring(ctx)
    h = r // 2
    out = []
    for k in range(m):
        vec = [R.zero] * (r * r)
        for i in range(h):
            for j in range(h, r):
                vec[i * r + j] = R.raw_col([ctx.scalar(
                    [rng.randrange(ctx.p ** 2) * ctx.p ** rng.choice(
                        (0, 0, 1, ctx.N)) for _ in range(ctx.n)])])[0]
        if lower and k == m // 2:
            vec[(r - 1) * r] = R.one
        out.append(vec)
    return out


@pytest.mark.parametrize("p, n, N", [(2, 1, 12), (5, 1, 9), (3, 3, 10)])
def test_nonzero_product_matches_reference(p, n, N):
    # matrices trusted modulo p^(N - loss) against the former body at
    # precision N - loss
    ctx = make_context(p, n, N)
    R = ring(ctx)
    rng = random.Random(97 * p + n)
    outcomes = set()
    for loss in (0, 1, 2):
        low = ctx.with_precision(N - loss)
        for r in (2, 4):
            for m in (0, 1, 3):
                for lower in (False, True):
                    vecs = _block_vecs(ctx, rng, r, m, lower)
                    want = _nonzero_product_reference(low, r, vecs)
                    assert _nonzero_product(ctx, r, vecs, loss) == want
                    outcomes.add(want is None)
            # products that vanish only modulo p^N: p^a E_12 and p^b E_21
            for a, b in ((1, N - 1), (2, N), (1, N - 2)):
                x = [R.zero] * (r * r)
                y = [R.zero] * (r * r)
                x[1] = R.of_int(p ** a)
                y[r] = R.of_int(p ** b)
                # z^2 vanishes modulo p^(N - loss), and for loss 2 not
                # modulo p^N, ahead of the pairs that do not vanish
                z = [R.zero] * (r * r)
                z[-1] = R.of_int(p ** ((N - loss + 1) // 2))
                for vecs in ([x, y], [y, x], [x, x, y], [z, x, y]):
                    assert _nonzero_product(ctx, r, vecs, loss) == \
                        _nonzero_product_reference(low, r, vecs)
                assert _nonzero_product(ctx, r, [x, y], loss) == \
                    ((0, 1) if a + b < N - loss else None)
            # random dense matrices, also behind matrices that kill K alone
            for _ in range(3):
                vecs = [R.raw_col([ctx.scalar([rng.randrange(p ** N)
                                               for _ in range(n)])
                                   for _ in range(r * r)]) for _ in range(3)]
                for lead in ([], [[R.zero] * (r * r)], [x]):
                    assert _nonzero_product(ctx, r, lead + vecs, loss) == \
                        _nonzero_product_reference(low, r, lead + vecs)
    assert outcomes == {False, True}


def test_square_zero_gate_honours_the_loss():
    # on a module that does not split, E = O_minus of a square-zero pair
    # set carries a loss, and E.E vanishes modulo p^(N - loss) only
    from dieudonne.problems import Session, parse_dict, run
    X = non_split_rank6(make_context(2, 1, 32))
    doc = {"name": "non_split_rank6", "p": 2, "n": 1, "precision": 32,
           "degree": 9, "rank": 6,
           "phi_matrix": [list(row) for row in X.phi.rows],
           "slope_pairs": [["0", "1/3"], ["0", "1/2"]]}
    report = run(parse_dict(doc), ["axioms", "slices", "connection"])
    found = report["analyses"]
    assert found["axioms"]["axiom_ii"] is True
    assert "axiom_ii" not in found["axioms"]["witnesses"]
    assert found["slices"]["square_vanishes"] is True
    assert found["slices"]["ok"]
    assert found["connection"]["ok"]
    E = Session(parse_dict(doc)).lattice_e()
    assert E.loss > 0
    assert _nonzero_product(X.ctx, 6, E.cols, 0) is not None
    assert _nonzero_product(X.ctx, 6, E.cols, E.loss) is None
