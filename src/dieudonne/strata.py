"""Dimension theory for group-cut deformation strata.

For a subgroup datum given by its Lie lattice inside End(M), the stratum
dimension data compares the tangent space cut out by the group with the
codimension of the group's largest negative stable lattice.  The full
general-linear case reduces to the slope-pair codimension sum; the
principally quasi-polarized case halves it with a boundary correction and
supplies the Cayley square root of unipotents.
"""

from __future__ import annotations

from fractions import Fraction

from .core import TangentSpace, codim_of_dieudonne, nu_image
from .errors import (CertificateFailed, CertificateInvalid,
                     SlopeSymmetryViolated, VerificationMismatch,
                     WrongCharacteristic)
from .isocrystal import (EndDecomposition, FIsocrystal, SlopeData,
                         dim_codim, end_frobenius, mat_to_vec, vec_to_mat)
from .lattices import (Lattice, intersect, invert_matrix, lattice_sum,
                       matrix_kernel, residue_intersection,
                       residue_spaces_equal, saturate)
from .matrix import _EntryRing, ring
from .series import TruncatedSeries, linear_matrix
from .signs import _transposed, pair_codim_closed_form


class GroupData:
    """A flat subgroup of the automorphisms of M, given through its Lie
    lattice (saturated in End(M)), with its certificates."""

    __slots__ = ("kind", "crystal", "lie", "gram", "phi_stable")

    def __init__(self, kind, crystal, lie, gram=None):
        self.kind = kind
        self.crystal = crystal
        self.lie = lie
        self.gram = gram
        self.phi_stable = None


def group_full_gl(crystal: FIsocrystal) -> GroupData:
    gd = GroupData("full-gl", crystal,
                   Lattice.standard(crystal.ctx, crystal.rank ** 2))
    gd.phi_stable = True
    return gd


def group_symplectic(crystal: FIsocrystal, gram_rows) -> GroupData:
    """Lie algebra {x : psi(xu, v) + psi(u, xv) = 0} of the symplectic
    group of a perfect alternating form; certifies the form."""
    ctx = crystal.ctx
    R = ring(ctx)
    r = crystal.rank
    g = R.raw_mat(gram_rows)
    _check_alternating_perfect(ctx, g)
    _check_polarization_compat(crystal, g)
    # condition rows for x^T G + G x = 0, unknowns x (row-major): entry
    # (a, b) is sum_k x[k][a] G[k][b] + sum_k G[a][k] x[k][b]
    e, g_cols = R.identity(r), list(zip(*g))
    rows = [list(map(R.add, R.outer(g_cols[b], e[a]), R.outer(g[a], e[b])))
            for a in range(r) for b in range(r)]
    kern = matrix_kernel(ctx, rows, ctx.N)
    lie = Lattice.from_columns(ctx, r * r, kern)
    gd = GroupData("symplectic", crystal, lie, gram=g)
    gd.phi_stable = _check_phi_stability(crystal, lie)
    if not gd.phi_stable:
        raise CertificateInvalid(
            "symplectic Lie algebra is not Frobenius-stable")
    return gd


def group_custom(crystal: FIsocrystal, basis_vectors) -> GroupData:
    """Custom subgroup from a Lie-lattice basis; checks bracket closure
    and Frobenius stability of the rational span."""
    ctx = crystal.ctx
    R = ring(ctx)
    r = crystal.rank
    lie = saturate(Lattice.from_columns(ctx, r * r,
                                        R.raw_mat(basis_vectors)),
                   Lattice.standard(ctx, r * r))
    mats = [vec_to_mat(c, r) for c in lie.cols]
    for i, ma in enumerate(mats):
        for j, mb in enumerate(mats):
            br = R.sub_mat(R.mul_mat(ma, mb), R.mul_mat(mb, ma))
            if not lie.contains_vector(mat_to_vec(br)):
                raise CertificateInvalid(
                    f"bracket of basis elements {i}, {j} leaves the "
                    "Lie lattice")
    gd = GroupData("custom", crystal, lie)
    gd.phi_stable = _check_phi_stability(crystal, lie)
    if not gd.phi_stable:
        raise CertificateInvalid("Lie span is not Frobenius-stable")
    return gd


def _check_phi_stability(crystal, lie):
    """phi(lie[1/p]) = lie[1/p]: saturation of the conjugated lattice
    agrees with the (saturated) lattice."""
    ctx = crystal.ctx
    amb = Lattice.standard(ctx, crystal.rank ** 2)
    img = end_frobenius(crystal)(lie)
    return saturate(img, amb).equals(lie)


def _check_alternating_perfect(ctx, g):
    R = ring(ctx)
    r = len(g)
    for i in range(r):
        if g[i][i] != R.zero:
            raise CertificateInvalid("form has a non-zero diagonal entry")
        for j in range(r):
            if R.add(g[i][j], g[j][i]) != R.zero:
                raise CertificateInvalid("form is not alternating")
    _, vdet = invert_matrix(ctx, g)
    if vdet != 0:
        raise CertificateInvalid("form is not perfect (non-unit Gram)")


def _check_polarization_compat(crystal, g):
    """psi(phi x, phi y) = p sigma(psi(x, y)): matrix identity
    A^T G A = p sigma(G)."""
    R = ring(crystal.ctx)
    arows = crystal.phi.rows
    lhs = R.mul_mat(R.mul_mat(list(zip(*arows)), g), arows)
    p = R.of_int(crystal.ctx.p)
    want = [R.scale(row, p) for row in R.frob_mat(g, 1)]
    if lhs != want:
        raise CertificateInvalid(
            "form is not Frobenius-compatible at twist p")


# ---------------------------------------------------------------------------
# the constant-locus dimension formula


def _pair_codim_sum(slope_data: SlopeData) -> int:
    """The sum of r_a r_b (b - a) over the increasing slope pairs."""
    slopes = slope_data.slope_list
    return sum(pair_codim_closed_form(slope_data, a, b)
               for i, a in enumerate(slopes) for b in slopes[i + 1:])


def traverso_dimension(decomp: EndDecomposition, tangent: TangentSpace):
    """(lattice side, closed form) of the constant-locus dimension:
    the tangent dimension of the largest negative stable lattice against
    the slope-pair sum; raises on disagreement."""
    O = decomp.o_minus()
    lattice_side = nu_image(O, tangent)[0] if O.rank else 0
    closed = _pair_codim_sum(decomp.slope_data)
    if lattice_side != closed:
        raise VerificationMismatch(
            f"tangent dimension {lattice_side} != slope-pair sum {closed}")
    return lattice_side, closed


# ---------------------------------------------------------------------------
# group strata


def n_g_mu(gd: GroupData, split) -> tuple[Lattice, list]:
    """The weight-one part of the Lie lattice (endomorphisms killing F^0
    and sending M/F^0 into F^0), and the residue basis of its tangent
    image, certified to have the lattice's rank."""
    low = split.hom_f1_f0()
    NG = intersect(low, gd.lie)
    dim, basis = nu_image(NG, TangentSpace.of(gd.crystal))
    if dim != NG.rank:
        raise CertificateInvalid(
            "tangent classes of the weight-one part are degenerate")
    return NG, basis


class StrataReport:
    __slots__ = ("n_G", "c_minus_G", "tangent_dim", "c_minus_full",
                 "fact_a_lhs", "fact_a_rhs", "fact_a_consistent",
                 "complement_found", "fact_b_holds", "ranks")

    def as_dict(self):
        return {k: getattr(self, k, None) for k in self.__slots__}


def strata_dims(gd: GroupData, decomp: EndDecomposition, split,
                tangent: TangentSpace) -> StrataReport:
    """Stratum dimension data for the subgroup: the negative lattices cut
    by the Lie algebra, their tangent images, and the two consistency
    facts relating them."""
    ctx = decomp.crystal.ctx
    rep = StrataReport()
    _, ng_basis = n_g_mu(gd, split)
    rep.n_G = len(ng_basis)
    V_minus = decomp.V_minus
    O_minus = decomp.o_minus()
    VmG = intersect(V_minus, gd.lie)
    OmG = intersect(O_minus, VmG)
    rep.ranks = {"V_minus(G)": VmG.rank, "O_minus(G)": OmG.rank,
                 "O_minus": O_minus.rank}
    cmg, omg_basis = nu_image(OmG, tangent)
    # tangent dimension equals the Verschiebung colength
    if OmG.rank and cmg != codim_of_dieudonne(OmG, decomp.carrier("minus")):
        raise VerificationMismatch(
            "tangent dimension of O_minus(G) differs from its "
            "codimension")
    rep.c_minus_G = cmg
    rep.c_minus_full, om_basis = nu_image(O_minus, tangent)
    # tangent space of the stratum: nu(N_G(mu)) cap nu(O_minus)
    t_basis = residue_intersection(ctx, ng_basis, om_basis)
    rep.tangent_dim = len(t_basis)
    if rep.tangent_dim < cmg:
        raise VerificationMismatch(
            "stratum tangent space is smaller than the stable-lattice "
            "codimension")
    # fact (a): dim t = c_-(G) iff nu(O_-(G)) = nu(V_-(G)) cap nu(O_-)
    _, vmg_basis = nu_image(VmG, tangent)
    cap = residue_intersection(ctx, vmg_basis, om_basis)
    rep.fact_a_lhs = (rep.tangent_dim == cmg)
    rep.fact_a_rhs = residue_spaces_equal(ctx, omg_basis, cap)
    rep.fact_a_consistent = (rep.fact_a_lhs == rep.fact_a_rhs)
    # fact (b): a stable complement forces the equality
    comp = _stable_complement(gd, decomp, VmG)
    rep.complement_found = comp is not None
    if comp is not None:
        rep.fact_b_holds = rep.fact_a_rhs
        if not rep.fact_b_holds:
            raise VerificationMismatch(
                "a stable complement exists but the tangent identity "
                "fails")
    else:
        rep.fact_b_holds = None
    return rep


def _stable_complement(gd, decomp, VmG):
    """A complement of V_-(G) in V_- stable under p phi, searched through
    the trace-orthogonal lattice of the Lie algebra."""
    crystal = decomp.crystal
    ctx = crystal.ctx
    r = crystal.rank
    V_minus = decomp.V_minus
    if gd.kind == "full-gl":
        return Lattice.zero(ctx, r * r) if VmG.equals(V_minus) else None
    # perp = {x : Tr(x, lie basis) = 0}; Tr(x y) is x against y^T
    rows = [_transposed(col, r) for col in gd.lie.cols]
    kern = matrix_kernel(ctx, rows, ctx.N - gd.lie.loss)
    perp = Lattice.from_columns(ctx, r * r, kern, loss=gd.lie.loss)
    comp = intersect(V_minus, perp)
    if comp.rank + VmG.rank != V_minus.rank:
        return None
    if not lattice_sum(comp, VmG).equals(V_minus):
        return None
    pphi = end_frobenius(crystal).scale_p(1)
    if not comp.contains(pphi(comp)):
        return None
    return comp


# ---------------------------------------------------------------------------
# the principally quasi-polarized case


def manin_symmetry_check(slope_data: SlopeData):
    slopes = slope_data.slopes
    m = len(slopes)
    for i in range(m):
        a, ra = slopes[i]
        b, rb = slopes[m - 1 - i]
        if Fraction(a) + Fraction(b) != 1 or ra != rb:
            raise SlopeSymmetryViolated(
                f"slopes {a} and {b} are not symmetric with matched "
                "multiplicities")


def polarized_closed_form(slope_data: SlopeData):
    """Half the slope-pair sum plus the boundary terms r_a (1/2 - a) over
    pairs (a, 1-a)."""
    n1 = Fraction(_pair_codim_sum(slope_data), 2)
    slopeset = set(slope_data.slope_list)
    for (a, ra) in slope_data.slopes:
        b = 1 - Fraction(a)
        if a < b and b in slopeset:
            n1 += Fraction(ra) * (Fraction(1, 2) - Fraction(a))
    assert n1.denominator == 1
    return int(n1)


def polarized_dim(decomp: EndDecomposition, split, gram_rows,
                  tangent: TangentSpace):
    """(lattice side, closed form) for the symplectic stratum dimension;
    checks the polarization certificates and Manin symmetry first."""
    c, d = dim_codim(decomp.crystal)
    if c != d:
        raise CertificateInvalid(
            "polarized modules need equal dimension and codimension")
    manin_symmetry_check(decomp.slope_data)
    gd = group_symplectic(decomp.crystal, gram_rows)
    _check_isotropy(split, gd.gram)
    rep = strata_dims(gd, decomp, split, tangent)
    closed = polarized_closed_form(decomp.slope_data)
    if rep.c_minus_G != closed:
        raise VerificationMismatch(
            f"symplectic lattice dimension {rep.c_minus_G} != closed "
            f"form {closed}")
    return rep.c_minus_G, closed


def _check_isotropy(split, g):
    """F^1 and F^0 must pair to zero with themselves, so the weight
    cocharacter lands in the similitude group."""
    R = ring(split.ctx)
    for cols in (split.F1.cols, split.F0.cols):
        for u in cols:
            for v in cols:
                # u^T G v
                if R.dot(u, [R.dot(row, v) for row in g]) != R.zero:
                    raise CertificateInvalid(
                        "a Hodge summand is not isotropic for the form")


# ---------------------------------------------------------------------------
# Cayley elements


def cayley_element(gd: GroupData, decomp: EndDecomposition, vectors,
                   dmax: int) -> dict:
    """(1 - V)(1 + V)^{-1} for V = sum v_i x_i, as a series matrix.

    Requires p > 2.  Certifies that the result preserves the form as a
    series identity and that its deviation from the identity has all
    monomial coefficients inside the negative stable lattice
    ``decomp.o_minus()`` of the crystal's End(M) decomposition.
    """
    crystal = decomp.crystal
    ctx = crystal.ctx
    if ctx.p == 2:
        raise WrongCharacteristic("the Cayley construction needs p > 2")
    if gd.gram is None:
        raise CertificateInvalid("Cayley elements need a symplectic datum")
    R = ring(ctx)
    r = crystal.rank
    n = len(vectors)
    vectors = R.raw_mat(vectors)
    for k, v in enumerate(vectors):
        if not gd.lie.contains_vector(v):
            raise CertificateFailed(
                f"vector {k} is not in the Lie lattice")
    V = linear_matrix(R, vectors, r, dmax)
    S = _EntryRing(TruncatedSeries.zero(R, n, dmax),
                   TruncatedSeries.constant(R, n, dmax, R.one))
    ident = S.identity(r)
    # V has positive degree, so V^(dmax + 1) vanishes in the truncation
    inv = S.nilpotent_inverse(V, dmax)
    w = S.mul_mat(S.sub_mat(ident, V), inv)
    # certificate (a): w^T G w = G through the window
    gser = [[TruncatedSeries.constant(R, n, dmax, gd.gram[i][j])
             for j in range(r)] for i in range(r)]
    wt = [[w[j][i] for j in range(r)] for i in range(r)]
    lhs = S.mul_mat(S.mul_mat(wt, gser), w)
    window = dmax
    for i in range(r):
        for j in range(r):
            diff = lhs[i][j] - gser[i][j]
            window = min(window, diff.valid)
            if not diff.is_zero_through(diff.valid):
                raise CertificateFailed(
                    "form is not preserved by the Cayley element")
    # certificate (b): coefficients of w - 1 lie in the negative lattice
    o_minus_g = decomp.o_minus()
    mono_set = set()
    for i in range(r):
        for j in range(r):
            d_ = w[i][j] - ident[i][j]
            mono_set.update(d_.coeffs.keys())
    for e in sorted(mono_set):
        mat = [[(w[i][j] - ident[i][j]).coefficient(e)
                for j in range(r)] for i in range(r)]
        if not o_minus_g.contains_vector(mat_to_vec(mat)):
            raise CertificateFailed(
                f"coefficient of monomial {e} leaves the negative "
                "lattice")
    return {
        "matrix": w,
        "symplectic_window": window,
        "coefficients_in_O_minus": True,
    }
