"""Core lattice constructions for Dieudonne modules inside End(M).

Provides the tangent-space quotient and its projection nu, Hodge
splittings M = F^1 + F^0 with the induced block grading of End(M), the
unit-part factorization of the Frobenius through the splitting, the
largest/smallest stable-lattice fixed points, the four axiom checks for
square-zero deformation lattices, and Lie (projector) elements t with
[x, t] = x on the lattice.
"""

from __future__ import annotations

from . import modp
from .errors import (HypothesisViolated, InclusionViolated, NoAutoConstruction,
                     NonConvergence, PrecisionExhausted, SingularMap,
                     SplittingInvalid, ValidationFailed)
from .isocrystal import (FIsocrystal, SlopeData, end_frobenius, mat_to_vec,
                         sandwich_map, vec_to_mat, _maps_equal)
from .lattices import (Lattice, SemilinearMap, intersect, invert_matrix,
                       kernel_span, lattice_sum, mod_p_dimension, saturate)
from .matrix import mat_mul


# ---------------------------------------------------------------------------
# tangent space and nu


class TangentSpace:
    """End(M/pM) modulo the endomorphisms preserving ker(phi mod p).

    nu sends an integral endomorphism to its class; the quotient has
    dimension (codimension x dimension) of the crystal.  ``of`` returns
    the one built per crystal.  It keeps the crystal's rank, not the
    crystal, so the copy cached on the crystal makes no reference cycle:
    ``bench/tracer.py`` keys span inputs by walking their fields, and that
    walk would not end on a cycle.
    """

    __slots__ = ("rank", "ctx", "fbar1", "f0_ech", "f0_pivots",
                 "free_cols", "dim")

    def __init__(self, crystal: FIsocrystal):
        ctx = crystal.ctx
        if crystal.phi.denominator > 0:
            raise ValueError(
                "tangent spaces need an integral (Dieudonne) operator")
        self.rank = r = crystal.rank
        self.ctx = ctx
        # kernel of the reduced Frobenius: solve A sigma(v) = 0 over F_q
        arows = [[x.residue() for x in row] for row in crystal.phi.rows]
        ker = modp.gf_kernel(ctx, arows)
        inv_twist = (-crystal.phi.twist) % ctx.n
        self.fbar1 = [[ctx.residue(ctx.frobenius(c, inv_twist)) for c in v]
                      for v in ker]
        # endomorphisms preserving fbar1: rows of conditions
        f0 = _preserving_endos(ctx, r, self.fbar1)
        self.f0_ech, self.f0_pivots = modp.gf_echelon(ctx, f0)
        pivset = set(self.f0_pivots)
        self.free_cols = [j for j in range(r * r) if j not in pivset]
        self.dim = len(self.free_cols)

    @classmethod
    def of(cls, crystal: FIsocrystal) -> "TangentSpace":
        """The tangent space of a crystal, built on first use and kept in
        ``crystal._derived``."""
        if "tangent" not in crystal._derived:
            crystal._derived["tangent"] = cls(crystal)
        return crystal._derived["tangent"]

    def nu_matrix(self, rows):
        """Class of an integral r x r matrix of scalars in the quotient,
        as a residue vector on the free coordinates."""
        vec = [x.residue() for x in mat_to_vec(rows)]
        res = modp.gf_reduce(self.ctx, self.f0_ech, self.f0_pivots, vec)
        return tuple(res[j] for j in self.free_cols)

    def nu_is_zero(self, vec):
        return all(self.ctx.gf_is_zero(x) for x in vec)


def _preserving_endos(ctx, r, fbar1):
    """Basis of {e in End(M/pM) : e(span) <= span}: the kernel of the
    conditions "e(v) reduces to zero modulo the span" over all span basis
    vectors v (unknowns are the r^2 entries of e, row-major)."""
    if not fbar1:
        return _full_endo_basis(ctx, r)
    ech, pivots = modp.gf_echelon(ctx, fbar1)
    cond_rows = []
    for v in ech:
        # the elementary matrix E_{ab} sends v to v[b] * (unit vector a)
        residuals = []
        for a in range(r):
            for b in range(r):
                img = [modp.gf_zero(ctx)] * r
                img[a] = v[b]
                residuals.append(modp.gf_reduce(ctx, ech, pivots, img))
        for coord in range(r):
            cond_rows.append([residuals[k][coord] for k in range(r * r)])
    return modp.gf_kernel(ctx, cond_rows)


def _full_endo_basis(ctx, r):
    one = tuple([1] + [0] * (ctx.n - 1))
    out = []
    for k in range(r * r):
        v = [modp.gf_zero(ctx)] * (r * r)
        v[k] = one
        out.append(v)
    return out


def nu_image(lattice: Lattice, tangent: TangentSpace):
    """(dimension, residue vectors) of the image of an integral End(M)
    lattice under nu."""
    lat = lattice.normalized()
    if lat.scale > 0:
        raise InclusionViolated("lattice is not inside End(M)")
    ctx = tangent.ctx
    r = tangent.rank
    vecs = []
    for col in lat.cols:
        mat = vec_to_mat(list(col), r)
        vecs.append(list(tangent.nu_matrix(mat)))
    ech, _ = modp.gf_echelon(ctx, vecs) if vecs else ([], [])
    return len(ech), ech


# ---------------------------------------------------------------------------
# Hodge splittings


class HodgeSplitting:
    """M = F^1 + F^0 with F^1 lifting ker(phi mod p); carries the block
    grading of End(M) induced by weights (-1, 0, 0, 1)."""

    __slots__ = ("crystal", "ctx", "F1", "F0", "P", "P_rows", "Pinv_rows",
                 "d", "c")

    def __init__(self, crystal, f1_cols, f0_cols):
        ctx = crystal.ctx
        r = crystal.rank
        self.crystal = crystal
        self.ctx = ctx
        self.d = len(f1_cols)
        self.c = len(f0_cols)
        if self.d + self.c != r:
            raise SplittingInvalid("F1 and F0 ranks do not sum to the rank")
        self.F1 = Lattice.from_columns(ctx, r, f1_cols)
        self.F0 = Lattice.from_columns(ctx, r, f0_cols)
        cols = [list(c) for c in f1_cols] + [list(c) for c in f0_cols]
        self.P_rows = [[cols[j][i] for j in range(r)] for i in range(r)]
        try:
            pinv, vdet = invert_matrix(ctx, self.P_rows)
        except (SingularMap, PrecisionExhausted) as exc:
            raise SplittingInvalid(f"basis change not invertible: {exc}")
        if vdet != 0:
            raise SplittingInvalid("F1 + F0 does not span M (non-unit index)")
        self.Pinv_rows = pinv
        # F1 mod p must be the kernel of the reduced Frobenius
        tangent_ker = TangentSpace.of(crystal).fbar1
        f1_res = [[x.residue() for x in col] for col in f1_cols]
        if not modp.gf_spaces_equal(ctx, tangent_ker, f1_res):
            raise SplittingInvalid(
                "F1 does not reduce to ker(phi mod p)")

    def weight_of_position(self, i, j):
        """Weight of the (i, j) block entry in the (F1 | F0) basis order:
        maps F1->F0 have weight +1, F0->F1 weight -1, diagonal 0."""
        from_f1 = j < self.d
        to_f1 = i < self.d
        if from_f1 and not to_f1:
            return 1
        if to_f1 and not from_f1:
            return -1
        return 0

    def block_lattice(self, weights) -> Lattice:
        """Integral lattice of endomorphisms whose (F1|F0)-blocks are
        supported on the given weights."""
        ctx = self.ctx
        r = self.crystal.rank
        gens = []
        for i in range(r):
            for j in range(r):
                if self.weight_of_position(i, j) not in weights:
                    continue
                # P E_ij P^{-1}
                mat = [[self.P_rows[a][i] * self.Pinv_rows[j][b]
                        for b in range(r)] for a in range(r)]
                gens.append(mat_to_vec(mat))
        if not gens:
            return Lattice.zero(ctx, r * r)
        return Lattice.from_columns(ctx, r * r, gens)

    def hom_f1_f0(self) -> Lattice:
        return self.block_lattice({1})

    def diagonal_blocks(self) -> Lattice:
        return self.block_lattice({0})

    def mu_numerator(self):
        """P diag(1_d, p 1_c) P^{-1}: p times the cocharacter value at p."""
        d, p = self.d, self.ctx.p
        scaled = [[x * p if k >= d else x for k, x in enumerate(row)]
                  for row in self.P_rows]
        return mat_mul(scaled, self.Pinv_rows, self.ctx.zero)


def hodge_splitting(crystal: FIsocrystal, f1_columns) -> HodgeSplitting:
    """Build a splitting from explicit F^1 columns; F^0 is spanned by the
    standard basis vectors off the pivots of F^1 mod p."""
    ctx = crystal.ctx
    r = crystal.rank
    f1 = [[ctx.scalar(x) for x in col] for col in f1_columns]
    res = [[x.residue() for x in col] for col in f1]
    _, pivots = modp.gf_echelon(ctx, res)
    taken = set(pivots)
    f0 = []
    for i in range(r):
        if i not in taken:
            col = [ctx.zero] * r
            col[i] = ctx.one
            f0.append(col)
    return HodgeSplitting(crystal, f1, f0)


def hodge_splitting_from_kernel(crystal: FIsocrystal) -> HodgeSplitting:
    """Splitting whose F^1 is the Teichmuller-free naive lift of
    ker(phi mod p) by standard vectors (valid for block-diagonal inputs)."""
    ctx = crystal.ctx
    t = TangentSpace.of(crystal)
    cols = [[ctx.scalar([c[k] for k in range(ctx.n)]) for c in v]
            for v in t.fbar1]
    return hodge_splitting(crystal, cols)


def sigma_phi(crystal: FIsocrystal, split: HodgeSplitting) -> SemilinearMap:
    """Unit part of the Frobenius through the splitting: the semilinear
    automorphism with phi = (unit part) o (p-weighted cocharacter)."""
    ctx = crystal.ctx
    mu_num = split.mu_numerator()
    prod = mat_mul(crystal.phi.rows,
                   [[x.frobenius(crystal.phi.twist) for x in row]
                    for row in mu_num], ctx.zero)
    m = SemilinearMap(ctx, prod, twist=crystal.phi.twist,
                      denominator=crystal.phi.denominator + 1,
                      loss=crystal.phi.loss)
    m = m.reduce_denominator()
    if m.denominator > 0:
        raise SplittingInvalid("unit-part factorization is not integral")
    try:
        _, vdet = invert_matrix(ctx, m.rows)
    except (SingularMap, PrecisionExhausted) as exc:
        raise SplittingInvalid(f"unit part not invertible: {exc}")
    if vdet != 0:
        raise SplittingInvalid("unit part does not preserve the lattice")
    return m


# ---------------------------------------------------------------------------
# the star property


def star_property_holds(crystal: FIsocrystal, tangent: TangentSpace,
                        rows) -> bool:
    """For an integral endomorphism x: phi(x) leaves End(M) exactly when
    nu(x) is non-zero."""
    ctx = crystal.ctx
    ainv, vdet = crystal.inverse_numerator()
    twisted = [[x.frobenius(crystal.phi.twist) for x in row] for row in rows]
    num = mat_mul(mat_mul(crystal.phi.rows, twisted, ctx.zero), ainv,
                  ctx.zero)
    integral = all(x.valuation() >= vdet for row in num for x in row)
    nu_nonzero = not tangent.nu_is_zero(tangent.nu_matrix(rows))
    return (not integral) == nu_nonzero


# ---------------------------------------------------------------------------
# stable-lattice fixed points


def _iteration_cap(V: Lattice) -> int:
    """Round bound of the stable-lattice iterations started at V."""
    return max(V.ambient, 1) * V.ctx.N + 10


def smallest_stable_superlattice(V: Lattice, numerator_steps, denominator
                                 ) -> Lattice:
    """Smallest lattice containing V and stable under every map
    p^{-denominator} * numerator, by the increasing closure.

    Works on the p^{k*denominator}-rescaled iterates so every round is an
    integral sum (division-free); the scale field carries the rescaling
    and the exact volume invariant detects stabilization.
    """
    ctx = V.ctx
    cur = V
    pd = ctx.p ** denominator
    for _ in range(_iteration_cap(V)):
        deepest = max((e for (_, e) in cur.pivots), default=0)
        if cur.scale + denominator + deepest >= ctx.N - 2:
            raise PrecisionExhausted(
                "closure rescaling exhausted the working precision; "
                "rebuild the context with a larger exponent")
        gens = [[x * pd for x in c] for c in cur.cols]
        for (num, extra) in numerator_steps:
            pe = ctx.p ** extra
            for c in cur.cols:
                img = num.apply_raw(list(c))
                if extra:
                    img = [x * pe for x in img]
                gens.append(img)
        nxt = Lattice.from_columns(ctx, cur.ambient, gens,
                                   scale=cur.scale + denominator,
                                   loss=cur.loss)
        if (nxt.rank == cur.rank
                and nxt.index_valuation()
                == cur.index_valuation() + cur.rank * denominator):
            # nxt contains the rescaled cur with equal volume: stable
            return cur
        cur = nxt
    raise NonConvergence("stable-superlattice iteration did not converge")


def _conjugation_numerators(crystal):
    """Integral numerators of the two conjugations: fwd(x) = A sigma(x)
    A_adj and bwd(x) = sigma^{-1}(A_adj x A), both equal to p^{v(det A)}
    times the actual conjugation; computed once per crystal."""
    if "conjugation" not in crystal._derived:
        ctx = crystal.ctx
        ainv, vdet = crystal.inverse_numerator()
        fwd_num = SemilinearMap(ctx, end_frobenius(crystal).rows, twist=1)
        e = (-1) % ctx.n
        left = [[x.frobenius(e) for x in row] for row in ainv]
        right = [[x.frobenius(e) for x in row] for row in crystal.phi.rows]
        bwd_num = sandwich_map(ctx, left, right, twist=e)
        crystal._derived["conjugation"] = (fwd_num, bwd_num, vdet)
    return crystal._derived["conjugation"]


def _membership_refine(E: Lattice, num_map, shift: int) -> Lattice:
    """Largest sublattice with num_map(x) inside p^shift times itself,
    by the decreasing refinement E <- {x in E : num_map(x) in p^shift E}.

    Entirely division-free (a stacked-kernel step per round), so the
    computed bases stay exact at the working precision; termination is
    detected by the exact rank/volume invariant.
    """
    ctx = E.ctx
    amb = E.ambient
    cur = E
    last = None
    for _ in range(_iteration_cap(E)):
        if cur.rank == 0:
            return cur
        imgs = [num_map.apply_raw(list(c)) for c in cur.cols]
        pk = ctx.p ** shift
        stacked = imgs + [[x * pk for x in c] for c in cur.cols]
        gens = kernel_span(ctx, stacked, cur.cols, ctx.N - cur.loss, amb)
        nxt = Lattice.from_columns(ctx, amb, gens, scale=cur.scale,
                                   loss=cur.loss)
        sig = (nxt.rank, nxt.index_valuation())
        if sig == (cur.rank, cur.index_valuation()):
            # same rank and volume inside a sublattice: equal
            return cur
        if last == sig:
            return nxt
        last = sig
        cur = nxt
    raise NonConvergence("stable-sublattice refinement did not converge")


def largest_sub_dieudonne(V: Lattice, crystal: FIsocrystal,
                          mode: str = "negative") -> Lattice:
    """Largest sublattice O of V that is a Dieudonne lattice for the
    appropriate twist of the conjugation Frobenius.

    mode "negative": (O, p phi) Dieudonne, i.e. phi^{-1}(O) <= O and
    p phi(O) <= O (for lattices of negative slopes).
    mode "positive": (O, phi) Dieudonne, i.e. phi(O) <= O and
    p phi^{-1}(O) <= O (for lattices of positive slopes).
    """
    fwd_num, bwd_num, vdet = _conjugation_numerators(crystal)
    if mode == "negative":
        # phi^{-1}(x) in E  <=>  bwd_num(x) in p^vdet E
        out = _membership_refine(V, bwd_num, vdet)
        checks = [(bwd_num, vdet, "phi^{-1}"), (fwd_num, vdet - 1, "p phi")]
    elif mode == "positive":
        out = _membership_refine(V, fwd_num, vdet)
        checks = [(fwd_num, vdet, "phi"),
                  (bwd_num, vdet - 1, "p phi^{-1}")]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for num, shift, name in checks:
        if not _maps_into(out, num, shift):
            raise HypothesisViolated(
                f"fixed point is not stable under {name}")
    return out


def _maps_into(E: Lattice, num_map, shift: int) -> bool:
    """num_map(E) inside p^shift E, tested without divisions (both sides
    are p-scaled to integral form first)."""
    ctx = E.ctx
    up = max(0, -shift)
    down = max(0, shift)
    target = Lattice.from_columns(
        ctx, E.ambient,
        [[x * (ctx.p ** down) for x in c] for c in E.cols],
        scale=E.scale, loss=E.loss) if down else E
    pk = ctx.p ** up
    for c in E.cols:
        img = num_map.apply_raw(list(c))
        if up:
            img = [x * pk for x in img]
        if target.solve(img, target.scale) is None:
            return False
    return True


def smallest_super_dieudonne(V: Lattice, crystal: FIsocrystal,
                             mode: str = "positive") -> Lattice:
    """Smallest Dieudonne lattice containing V.

    mode "positive": stability under phi and p phi^{-1};
    mode "negative": stability under p phi and phi^{-1}.
    """
    fwd_num, bwd_num, vdet = _conjugation_numerators(crystal)
    if mode == "positive":
        # phi = p^-vdet fwd_num ; p phi^{-1} = p^{1-vdet} bwd_num
        steps = [(fwd_num, 0), (bwd_num, 1)]
    elif mode == "negative":
        steps = [(fwd_num, 1), (bwd_num, 0)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = smallest_stable_superlattice(V, steps, vdet)
    checks = ([(fwd_num, vdet, "phi"), (bwd_num, vdet - 1, "p phi^{-1}")]
              if mode == "positive"
              else [(fwd_num, vdet - 1, "p phi"),
                    (bwd_num, vdet, "phi^{-1}")])
    for num, shift, name in checks:
        if not _maps_into(out, num, shift):
            raise HypothesisViolated(
                f"fixed point is not stable under {name}")
    return out


# ---------------------------------------------------------------------------
# codimension


def codim_of_dieudonne(E: Lattice, crystal: FIsocrystal) -> int:
    """Codimension of (E, p phi): colength of the Verschiebung image
    phi^{-1}(E) in E.

    The image is presented with its p-denominator in the scale (no
    content division), so its basis stays exact and the colength decision
    runs at full precision minus the scale gap.
    """
    ctx = E.ctx
    _, bwd_num, vdet = _conjugation_numerators(crystal)
    img = Lattice.from_columns(
        ctx, E.ambient, [bwd_num.apply_raw(list(c)) for c in E.cols],
        scale=E.scale + vdet, loss=E.loss)
    if not E.contains(img):
        raise InclusionViolated("(E, p phi) is not a Dieudonne lattice")
    return mod_p_dimension(img, E)


# ---------------------------------------------------------------------------
# axiom checks


class AxiomReport:
    __slots__ = ("axiom_i", "axiom_ii", "axiom_iii", "axiom_iv",
                 "witnesses", "ranks")

    def __init__(self):
        self.axiom_i = None
        self.axiom_ii = None
        self.axiom_iii = None
        self.axiom_iv = None
        self.witnesses = {}
        self.ranks = {}

    def all_pass(self):
        checked = [x for x in (self.axiom_i, self.axiom_ii,
                               self.axiom_iii, self.axiom_iv)
                   if x is not None]
        return all(checked)

    def as_dict(self):
        return {
            "axiom_i": self.axiom_i,
            "axiom_ii": self.axiom_ii,
            "axiom_iii": self.axiom_iii,
            "axiom_iv": self.axiom_iv,
            "witnesses": dict(self.witnesses),
            "ranks": dict(self.ranks),
        }


def check_axioms(E: Lattice, crystal: FIsocrystal, V_minus: Lattice,
                 split: HodgeSplitting | None = None) -> AxiomReport:
    """The four axioms for a deformation lattice E inside the negative
    part: (i) maximality of (E, p phi) in E[1/p] cap V_-, (ii) E^2 = 0,
    and for a supplied splitting (iii) compatibility with the block
    grading and (iv) the unit-part decomposition of E."""
    ctx = crystal.ctx
    r = crystal.rank
    report = AxiomReport()
    report.ranks["E"] = E.rank
    # (i)
    sat = saturate(E, V_minus)
    recomputed = largest_sub_dieudonne(sat, crystal, mode="negative")
    report.axiom_i = recomputed.equals(E)
    if not report.axiom_i:
        report.witnesses["axiom_i"] = (
            f"largest Dieudonne sublattice has rank {recomputed.rank}, "
            f"E has rank {E.rank}")
    # (ii)
    report.axiom_ii = True
    mats = [vec_to_mat(list(c), r) for c in E.cols]
    for a, ma in enumerate(mats):
        for b, mb in enumerate(mats):
            prod = mat_mul(ma, mb, ctx.zero)
            if any(not x.is_zero() for row in prod for x in row):
                report.axiom_ii = False
                report.witnesses["axiom_ii"] = (
                    f"product of basis elements {a} and {b} is non-zero")
                break
        if not report.axiom_ii:
            break
    if split is None:
        return report
    # (iii)
    diag = split.diagonal_blocks()
    low = split.hom_f1_f0()
    F0E = intersect(E, diag)
    Fm1E = intersect(E, low)
    report.ranks["F0(E)"] = F0E.rank
    report.ranks["F-1(E)"] = Fm1E.rank
    direct = lattice_sum(F0E, Fm1E)
    report.axiom_iii = (F0E.rank + Fm1E.rank == E.rank
                        and direct.equals(E)
                        and intersect(F0E, Fm1E).rank == 0)
    if not report.axiom_iii:
        report.witnesses["axiom_iii"] = (
            f"graded parts of ranks {F0E.rank} + {Fm1E.rank} "
            f"do not decompose E of rank {E.rank}")
    # (iv)
    fwd = end_frobenius(crystal)
    phi_f0 = fwd(F0E)
    pphi_fm1 = fwd.scale_p(1)(Fm1E)
    total = lattice_sum(phi_f0, pphi_fm1)
    report.axiom_iv = (total.equals(E)
                       and intersect(phi_f0, pphi_fm1).rank == 0
                       and phi_f0.rank + pphi_fm1.rank == E.rank)
    if not report.axiom_iv:
        report.witnesses["axiom_iv"] = (
            "phi(F0(E)) + p phi(F-1(E)) differs from E")
    return report


# ---------------------------------------------------------------------------
# Lie elements


def lie_element(E: Lattice, slope_data: SlopeData, user_t=None
                ) -> SemilinearMap:
    """A phi-fixed projector t with [x, t] = x for all x in E.

    When the module splits into its slope components and the images of E
    land in a union of components, t is the identity minus the projector
    onto that union; otherwise a user-supplied candidate is validated.
    """
    crystal = slope_data.crystal
    ctx = crystal.ctx
    r = crystal.rank
    if user_t is None:
        if E.rank == 0:
            raise NoAutoConstruction("zero lattice admits no Lie element")
        # image span W0 = sum of y(M) over a basis of E
        img = Lattice.zero(ctx, r)
        for colv in E.cols:
            mat = vec_to_mat(list(colv), r)
            img = lattice_sum(img, Lattice.from_columns(
                ctx, r, [[mat[i][j] for i in range(r)] for j in range(r)]))
        W0 = saturate(img, crystal.M)
        chosen = []
        covered = Lattice.zero(ctx, r)
        for alpha, comp in slope_data.components.items():
            if W0.contains(comp):
                chosen.append(alpha)
                covered = lattice_sum(covered, comp)
        if not covered.equals(W0) or not slope_data.is_split:
            raise NoAutoConstruction(
                "image span is not a union of integral slope components; "
                "supply a candidate element")
        t = SemilinearMap.identity(ctx, r)
        for alpha in chosen:
            t = t.sub(slope_data.projectors[alpha])
    else:
        t = user_t
    _validate_lie_element(t, E, crystal)
    return t


def _validate_lie_element(t: SemilinearMap, E: Lattice,
                          crystal: FIsocrystal):
    ctx = crystal.ctx
    r = crystal.rank
    if not _maps_equal(t.compose(t), t):
        raise ValidationFailed("candidate is not a projector (t^2 != t)")
    if not _maps_equal(crystal.phi.compose(t), t.compose(crystal.phi)):
        raise ValidationFailed("candidate is not fixed by the Frobenius")
    for k, colv in enumerate(E.cols):
        x = SemilinearMap(ctx, vec_to_mat(list(colv), r))
        bracket = x.compose(t).sub(t.compose(x))
        if not _maps_equal(bracket, x):
            raise ValidationFailed(
                f"[x, t] != x on basis element {k}")
