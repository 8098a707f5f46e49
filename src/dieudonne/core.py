"""Core lattice constructions for Dieudonne modules inside End(M).

Provides the tangent space Hom(F1bar, M/pM / F1bar), F1bar = ker(phi
mod p), and the projection nu of End(M) onto it (restriction to F1bar,
read modulo F1bar), Hodge splittings M = F^1 + F^0 with the induced
block grading of End(M), the unit-part factorization of the Frobenius
through the splitting, the largest/smallest stable-lattice fixed points,
the four axiom checks for square-zero deformation lattices, and Lie
(projector) elements t with [x, t] = x on the lattice.  Matrices and
lattice columns are raw (``matrix.ring``).

The fixed points and the codimension run on a ``Carrier``: a saturated
lattice S of End(M) of rank d, with the two conjugation numerators
restricted to its echelon basis B (N sigma(B) = B C), and a sign that
decides the stability rule: (O, p phi) for "minus", (O, phi) for "plus".
Each column of C is one solve of a numerator's image of a basis vector in
S, and a solve that fails raises ``InclusionViolated``.  A lattice inside
S[1/p] is refined in Z^d and mapped back through B once, to the same
canonical presentation as the End(M) computation.  On a module that does
not split integrally, or for a lattice with a loss, End(M) itself is the
carrier, with the identity basis.
"""

from __future__ import annotations

from .errors import (HypothesisViolated, InclusionViolated, NoAutoConstruction,
                     NonConvergence, PrecisionExhausted, SingularMap,
                     SplittingInvalid, ValidationFailed)
from .isocrystal import (EndDecomposition, FIsocrystal, SlopeData,
                         end_frobenius, mat_to_vec, sandwich_map, vec_to_mat,
                         _hom_span, _maps_equal)
from .lattices import (Lattice, SemilinearMap, intersect, invert_matrix,
                       kernel_span, lattice_sum, mod_p_dimension,
                       residue_echelon, residue_kernel, residue_reduce,
                       saturate)
from .matrix import ring


# ---------------------------------------------------------------------------
# tangent space and nu


class TangentSpace:
    """Hom(F1bar, M/pM / F1bar), the tangent space of the Dieudonne
    lattices at the crystal, where F1bar = ker(phi mod p).

    nu sends an integral endomorphism x to the class of its restriction to
    F1bar: for each reduced echelon vector v of F1bar, in order, the
    residue of x v modulo F1bar read at the r - d positions off the
    pivots.  The quotient has dimension d (r - d), d = dim F1bar.  Residue
    vectors (``fbar1``, ``ech``, the classes of ``nu_matrix``) are raw
    entries in [0, p).  ``of`` returns the one built per crystal.  It
    keeps the crystal's rank, not the crystal, so the copy cached on the
    crystal makes no reference cycle: ``bench/tracer.py`` keys span inputs
    by walking their fields, and that walk would not end on a cycle.
    ``images`` memoizes ``nu_image`` by lattice presentation (cols, scale,
    loss), so equal lattices held by different objects are imaged once;
    its keys and values are tuples and residue vectors only.
    """

    __slots__ = ("rank", "ctx", "fbar1", "ech", "pivots", "ech_cols",
                 "off_pivots", "dim", "images")

    def __init__(self, crystal: FIsocrystal):
        ctx = crystal.ctx
        if crystal.phi.denominator > 0:
            raise ValueError(
                "tangent spaces need an integral (Dieudonne) operator")
        self.rank = r = crystal.rank
        self.ctx = ctx
        R = ring(ctx)
        # kernel of the reduced Frobenius: solve A sigma(v) = 0 over F_q
        ker = residue_kernel(ctx, crystal.phi.rows, r)
        inv_twist = (-crystal.phi.twist) % ctx.n
        self.fbar1 = [[R.rem(R.frob(c, inv_twist), ctx.p) for c in v]
                      for v in ker]
        self.ech, self.pivots = residue_echelon(ctx, self.fbar1)
        self.ech_cols = [list(row) for row in zip(*self.ech)]
        taken = set(self.pivots)
        self.off_pivots = [i for i in range(r) if i not in taken]
        self.dim = len(self.ech) * len(self.off_pivots)
        self.images = {}

    @classmethod
    def of(cls, crystal: FIsocrystal) -> "TangentSpace":
        """The tangent space of a crystal, built on first use and kept in
        ``crystal._derived``."""
        if "tangent" not in crystal._derived:
            crystal._derived["tangent"] = cls(crystal)
        return crystal._derived["tangent"]

    def nu_matrix(self, rows):
        """Class of an integral raw r x r matrix x: the residues of x v
        modulo F1bar off its pivots, v running over ``ech``."""
        ctx = self.ctx
        out = []
        for img in zip(*ring(ctx).mul_mat(rows, self.ech_cols)):
            res = residue_reduce(ctx, self.ech, self.pivots, list(img))
            out.extend(res[i] for i in self.off_pivots)
        return tuple(out)

    def nu_is_zero(self, vec):
        zero = ring(self.ctx).zero
        return all(x == zero for x in vec)


def nu_image(lattice: Lattice, tangent: TangentSpace):
    """(dimension, residue vectors) of the image of an integral End(M)
    lattice under nu; the vectors are its reduced echelon basis, raw
    entries in [0, p).  Computed once per presentation (``images``)."""
    key = (lattice.cols, lattice.scale, lattice.loss)
    image = tangent.images.get(key)
    if image is None:
        lat = lattice.normalized()
        if lat.scale > 0:
            raise InclusionViolated("lattice is not inside End(M)")
        r = tangent.rank
        vecs = [tangent.nu_matrix(vec_to_mat(col, r)) for col in lat.cols]
        ech, _ = residue_echelon(tangent.ctx, vecs)
        image = tangent.images[key] = (len(ech), ech)
    return image


# ---------------------------------------------------------------------------
# Hodge splittings


class HodgeSplitting:
    """M = F^1 + F^0 with F^1 lifting ker(phi mod p); carries the block
    grading of End(M) induced by weights (-1, 0, 0, 1).  Its blocks are
    Hom spans (``isocrystal._hom_span``): the outer products t f^T with t
    a basis column of one summand (a column of P) and f a row of P^{-1}
    dual to the other."""

    __slots__ = ("crystal", "ctx", "F1", "F0", "P_cols", "P_rows",
                 "Pinv_rows", "d", "c")

    def __init__(self, crystal, f1_cols, f0_cols):
        ctx = crystal.ctx
        R = ring(ctx)
        r = crystal.rank
        self.crystal = crystal
        self.ctx = ctx
        f1_cols, f0_cols = R.raw_mat(f1_cols), R.raw_mat(f0_cols)
        self.d = len(f1_cols)
        self.c = len(f0_cols)
        if self.d + self.c != r:
            raise SplittingInvalid("F1 and F0 ranks do not sum to the rank")
        self.F1 = Lattice.from_columns(ctx, r, f1_cols)
        self.F0 = Lattice.from_columns(ctx, r, f0_cols)
        self.P_cols = f1_cols + f0_cols
        self.P_rows = [list(row) for row in zip(*self.P_cols)]
        try:
            pinv, vdet = invert_matrix(ctx, self.P_rows)
        except (SingularMap, PrecisionExhausted) as exc:
            raise SplittingInvalid(f"basis change not invertible: {exc}")
        if vdet != 0:
            raise SplittingInvalid("F1 + F0 does not span M (non-unit index)")
        self.Pinv_rows = pinv
        # F1 mod p must be the kernel of the reduced Frobenius
        tangent = TangentSpace.of(crystal)
        if residue_echelon(ctx, f1_cols) != (tangent.ech, tangent.pivots):
            raise SplittingInvalid(
                "F1 does not reduce to ker(phi mod p)")

    def hom_f1_f0(self) -> Lattice:
        """Hom(F^1, F^0), weight 1: the endomorphisms that kill F^0 and
        map F^1 into F^0."""
        d, pinv, cols = self.d, self.Pinv_rows, self.P_cols
        return _hom_span(self.ctx, len(cols) ** 2, [(pinv[:d], cols[d:])])

    def diagonal_blocks(self) -> Lattice:
        """End(F^1) + End(F^0), weight 0."""
        d, pinv, cols = self.d, self.Pinv_rows, self.P_cols
        return _hom_span(self.ctx, len(cols) ** 2,
                         [(pinv[:d], cols[:d]), (pinv[d:], cols[d:])])

    def mu_numerator(self):
        """P diag(1_d, p 1_c) P^{-1}: p times the cocharacter value at p."""
        R = ring(self.ctx)
        d, p = self.d, R.of_int(self.ctx.p)
        scaled = [row[:d] + R.scale(row[d:], p) for row in self.P_rows]
        return R.mul_mat(scaled, self.Pinv_rows)


def hodge_splitting(crystal: FIsocrystal, f1_columns) -> HodgeSplitting:
    """Build a splitting from explicit F^1 columns; F^0 is spanned by the
    standard basis vectors off the pivots of F^1 mod p."""
    ctx = crystal.ctx
    R = ring(ctx)
    f1 = R.raw_mat(f1_columns)
    _, pivots = residue_echelon(ctx, f1)
    taken = set(pivots)
    f0 = [col for i, col in enumerate(R.identity(crystal.rank))
          if i not in taken]
    return HodgeSplitting(crystal, f1, f0)


def hodge_splitting_from_kernel(crystal: FIsocrystal) -> HodgeSplitting:
    """Splitting whose F^1 is the Teichmuller-free naive lift of
    ker(phi mod p) by standard vectors (valid for block-diagonal inputs)."""
    return hodge_splitting(crystal, TangentSpace.of(crystal).fbar1)


def sigma_phi(crystal: FIsocrystal, split: HodgeSplitting) -> SemilinearMap:
    """Unit part of the Frobenius through the splitting: the semilinear
    automorphism with phi = (unit part) o (p-weighted cocharacter)."""
    ctx = crystal.ctx
    R = ring(ctx)
    e = crystal.phi.twist
    prod = R.mul_mat(crystal.phi.rows, R.frob_mat(split.mu_numerator(), e))
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
    R = ring(crystal.ctx)
    rows = R.raw_mat(rows)
    fwd = end_frobenius(crystal)
    integral = all(R.val(x) >= fwd.denominator
                   for x in fwd.apply_raw(mat_to_vec(rows)))
    nu_nonzero = not tangent.nu_is_zero(tangent.nu_matrix(rows))
    return (not integral) == nu_nonzero


# ---------------------------------------------------------------------------
# stable-lattice fixed points


def _iteration_cap(V: Lattice) -> int:
    """Round bound of the stable-lattice iterations started at V."""
    return max(V.ambient, 1) * V.ctx.N + 10


def smallest_stable_superlattice(V: Lattice, numerator_steps, denominator,
                                 rounds: int) -> Lattice:
    """Smallest lattice containing V and stable under every map
    p^{-denominator} * numerator, by the increasing closure, in at most
    ``rounds`` rounds.

    Works on the p^{k*denominator}-rescaled iterates so every round is an
    integral sum (division-free); the scale field carries the rescaling
    and the exact volume invariant detects stabilization.
    """
    ctx = V.ctx
    R = ring(ctx)
    cur = V
    for _ in range(rounds):
        deepest = max((e for (_, e) in cur.pivots), default=0)
        if cur.scale + denominator + deepest >= ctx.N - 2:
            raise PrecisionExhausted(
                "closure rescaling exhausted the working precision; "
                "rebuild the context with a larger exponent")
        gens = cur._scaled_cols(denominator)
        for (num, extra) in numerator_steps:
            pe = R.of_int(ctx.p ** extra)
            for c in cur.cols:
                img = num.apply_raw(c)
                if extra:
                    img = R.scale(img, pe)
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
    """(fwd, bwd, vdet): the conjugations x -> phi x phi^{-1} (fwd, which
    is ``end_frobenius``) and x -> phi^{-1} x phi (bwd, see
    ``_backward_numerator``) on End(M), each p^{-vdet} times its integral
    numerator, vdet = v(det A): A sigma(x) A_adj and sigma^{-1}(A_adj x
    A).  Both are r^2 x r^2 ``sandwich_map``s, each computed once per
    crystal."""
    return (end_frobenius(crystal),) + _backward_numerator(crystal)


def _backward_numerator(crystal):
    """(bwd, vdet): the numerator sigma^{-1}(A_adj x A) of x -> phi^{-1} x
    phi on End(M), which is p^{-vdet} times it, as a ``sandwich_map``;
    computed once per crystal and cached apart from ``end_frobenius``,
    which the trivializer does not need."""
    if "backward" not in crystal._derived:
        ctx = crystal.ctx
        ainv, vdet = crystal.inverse_numerator()
        e = (-1) % ctx.n
        R = ring(ctx)
        bwd_num = sandwich_map(ctx, R.frob_mat(ainv, e),
                               R.frob_mat(crystal.phi.rows, e), twist=e,
                               denominator=vdet, loss=crystal.phi.loss)
        crystal._derived["backward"] = (bwd_num, vdet)
    return crystal._derived["backward"]


class Carrier:
    """A saturated lattice S of End(M) that both conjugation numerators
    map into itself, in the coordinates of its basis, with the sign of
    the Hom blocks it spans.

    ``lattice`` is S; its processing-order echelon B (``S.ech``) has unit
    pivots, so B is a basis of S and S is a direct summand of End(M).
    ``fwd`` and ``bwd`` are the numerators restricted to S: the d x d
    semilinear maps C with N sigma(B) = B C.  A lattice L inside S[1/p]
    is handled as its coordinate lattice X in Z^d with B X = L
    (``coords``), and mapped back once (``lift``).  As S is saturated, X
    and L have the same rank, pivot valuations and memberships, so a
    closure and its certificates take the same steps on X as on L, at
    rank d instead of r^2.

    ``sign`` ("plus" or "minus") decides what the closures make stable,
    as the table ``conditions`` of (numerator, shift, name), fwd then
    bwd, each asking num(x) in p^shift O: (O, p phi) Dieudonne for
    "minus", (O, phi) Dieudonne for "plus".

    On a module that splits integrally, a lattice S of loss 0 gets its
    own carrier: each column of C is the solve of a numerator's image of a
    basis vector in S (``_restricted``), and a failed solve is the
    certificate that the numerator does not map S into itself.  Every
    other lattice (a module that does not split, or a lattice with a loss)
    gets End(M) itself, with the identity basis (``lattice`` None, the
    numerators as they are).

    A carrier keeps neither the crystal nor a decomposition: it is cached
    in ``EndDecomposition._derived``, and ``bench/tracer.py`` keys span
    inputs by walking their fields, a walk that would not end on a cycle.
    """

    __slots__ = ("lattice", "fwd", "bwd", "vdet", "sign", "conditions")

    def __init__(self, lattice, fwd, bwd, vdet, sign):
        self.lattice = lattice
        self.fwd = fwd
        self.bwd = bwd
        self.vdet = vdet
        self.sign = sign
        # phi = p^-vdet fwd and phi^{-1} = p^-vdet bwd
        self.conditions = {
            "minus": ((fwd, vdet - 1, "p phi"), (bwd, vdet, "phi^{-1}")),
            "plus": ((fwd, vdet, "phi"), (bwd, vdet - 1, "p phi^{-1}")),
        }[sign]

    @classmethod
    def of(cls, S: Lattice, sign: str, slope_data: SlopeData) -> "Carrier":
        """The carrier of sign ``sign`` on a saturated integral lattice S
        of End(M).  On a module that splits (``slope_data.is_split``) it
        raises InclusionViolated when a numerator does not map S into
        itself.

        A basis with a loss is trusted only modulo p^(N - loss), so its
        coordinates would not reproduce the End(M) computation digit for
        digit, and the signed lattices of a module that does not split
        integrally carry the loss of the projectors' denominators: such
        an S, and any S of such a module, is handled as End(M).
        """
        if S.scale or any(e for (_, e) in S.ech_pivots):
            raise InclusionViolated(
                "a carrier needs a saturated integral lattice")
        fwd, bwd, vdet = _conjugation_numerators(slope_data.crystal)
        if S.loss or not slope_data.is_split:
            return cls(None, fwd, bwd, vdet, sign)
        return cls(S, _restricted(S, fwd), _restricted(S, bwd), vdet, sign)

    def coords(self, V: Lattice) -> Lattice:
        """The coordinate lattice of V, which must lie in S[1/p]."""
        S = self.lattice
        if S is None:
            return V
        xs = S.coordinates(V.cols)
        if xs is None:
            raise InclusionViolated("lattice is not inside its carrier")
        return Lattice.from_columns(V.ctx, S.rank, xs, scale=V.scale,
                                    loss=V.loss)

    def lift(self, X: Lattice) -> Lattice:
        """The End(M) lattice B X, canonicalized."""
        S = self.lattice
        if S is None:
            return X
        gens = ring(X.ctx).mul_mat(list(X.cols), list(S.ech))
        return Lattice.from_columns(X.ctx, S.ambient, gens, scale=X.scale,
                                    loss=X.loss)


def _restricted(S: Lattice, num: SemilinearMap) -> SemilinearMap:
    """The matrix C with num sigma(B) = B C on the echelon basis B of S:
    one solve per basis vector, and InclusionViolated when num does not
    map S into itself.  B has unit pivots, so C is unique modulo p^N."""
    cols = S.coordinates(num.apply_raw(b) for b in S.ech)
    if cols is None:
        raise InclusionViolated(
            "block lattice is not stable under a conjugation numerator")
    return SemilinearMap(S.ctx, list(zip(*cols)), twist=num.twist,
                         loss=max(num.loss, S.loss))


def _membership_refine(E: Lattice, num_map, shift: int, rounds: int
                       ) -> Lattice:
    """Largest sublattice with num_map(x) inside p^shift times itself,
    by the decreasing refinement E <- {x in E : num_map(x) in p^shift E},
    in at most ``rounds`` rounds.

    Entirely division-free (a stacked-kernel step per round).  The
    digits just below p^N can depend on the order of the pivot rows: the
    same refinement on another basis of E may return a lattice that
    differs from this one there.  Termination is detected by the exact
    rank/volume invariant.
    """
    ctx = E.ctx
    amb = E.ambient
    cur = E
    last = None
    for _ in range(rounds):
        if cur.rank == 0:
            return cur
        imgs = [num_map.apply_raw(c) for c in cur.cols]
        stacked = imgs + cur._scaled_cols(shift)
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


def _certify_stable(X: Lattice, checks):
    for num, shift, name in checks:
        if not _maps_into(X, num, shift):
            raise HypothesisViolated(
                f"fixed point is not stable under {name}")


def largest_sub_dieudonne(V: Lattice, carrier: Carrier) -> Lattice:
    """Largest sublattice O of V stable under the conditions of the
    carrier's sign: (O, p phi) Dieudonne for "minus" (negative slopes),
    (O, phi) Dieudonne for "plus" (positive slopes).  The refinement,
    by the sign's own Frobenius, and its certificates run in the
    coordinates of the carrier, whose lattice contains V; the result is
    in the same canonical presentation as on End(M).
    """
    # phi^{-1}(x) in E  <=>  bwd(x) in p^vdet E, and likewise phi and fwd
    refine = carrier.bwd if carrier.sign == "minus" else carrier.fwd
    out = _membership_refine(carrier.coords(V), refine, carrier.vdet,
                             _iteration_cap(V))
    _certify_stable(out, carrier.conditions)
    return carrier.lift(out)


def _maps_into(E: Lattice, num_map, shift: int) -> bool:
    """num_map(E) inside p^shift E, tested without divisions (both sides
    are p-scaled to integral form first)."""
    R = ring(E.ctx)
    up = max(0, -shift)
    down = max(0, shift)
    target = Lattice.from_columns(
        E.ctx, E.ambient, E._scaled_cols(down),
        scale=E.scale, loss=E.loss) if down else E
    pk = R.of_int(E.ctx.p ** up)
    imgs = (num_map.apply_raw(c) for c in E.cols)
    if up:
        imgs = (R.scale(img, pk) for img in imgs)
    return target.coordinates(imgs, target.scale) is not None


def smallest_super_dieudonne(V: Lattice, carrier: Carrier) -> Lattice:
    """Smallest lattice containing V that is stable under the conditions
    of the carrier's sign, run in its coordinates as in
    ``largest_sub_dieudonne``."""
    # num(x) in p^shift E: num rescaled by p^(vdet - shift) over p^vdet
    steps = [(num, carrier.vdet - shift)
             for num, shift, _ in carrier.conditions]
    out = smallest_stable_superlattice(carrier.coords(V), steps,
                                       carrier.vdet, _iteration_cap(V))
    _certify_stable(out, carrier.conditions)
    return carrier.lift(out)


# ---------------------------------------------------------------------------
# codimension


def codim_of_dieudonne(E: Lattice, carrier: Carrier) -> int:
    """Codimension of (E, p phi): colength of the Verschiebung image
    phi^{-1}(E) in E, in the coordinates of the carrier.

    The image is presented with its p-denominator in the scale (no
    content division), so its basis stays exact and the colength decision
    runs at full precision minus the scale gap.
    """
    X = carrier.coords(E)
    img = Lattice.from_columns(
        X.ctx, X.ambient, [carrier.bwd.apply_raw(col) for col in X.cols],
        scale=X.scale + carrier.vdet, loss=X.loss)
    if not X.contains(img):
        raise InclusionViolated("(E, p phi) is not a Dieudonne lattice")
    return mod_p_dimension(img, X)


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


def _nonzero_product(ctx, r, vecs, loss):
    """The first pair (a, b) of flattened raw r x r matrices, trusted
    modulo p^(N - loss), whose product vecs[a] vecs[b] is non-zero modulo
    p^(N - loss), or None when every product vanishes there.

    Every product vanishes exactly when each matrix kills the span K of
    all the columns of all of them, which one echelon gives (at most r
    columns), so that test costs one product per matrix; the pair loop
    runs only when it fails, to name the first pair."""
    R = ring(ctx)
    neff = ctx.N - loss
    mats = [vec_to_mat(v, r) for v in vecs]
    K = Lattice.from_columns(ctx, r, [col for m in mats for col in zip(*m)],
                             loss=loss)
    k_rows = list(zip(*K.ech))
    if all(R.vanishes(row, neff) for m in mats
           for row in R.mul_mat(m, k_rows)):
        return None
    for a, ma in enumerate(mats):
        for b, mb in enumerate(mats):
            if not all(R.vanishes(row, neff) for row in R.mul_mat(ma, mb)):
                return a, b
    return None


def check_axioms(E: Lattice, decomp: EndDecomposition,
                 split: HodgeSplitting | None = None) -> AxiomReport:
    """The four axioms for a deformation lattice E inside the negative
    part V_- of the decomposition: (i) maximality of (E, p phi) in
    E[1/p] cap V_-, (ii) E^2 = 0, and for a supplied splitting (iii)
    compatibility with the block grading and (iv) the unit-part
    decomposition of E.  The refinement of (i) runs in the coordinates of
    the decomposition's carrier of V_-."""
    crystal = decomp.crystal
    report = AxiomReport()
    report.ranks["E"] = E.rank
    # (i)
    sat = saturate(E, decomp.V_minus)
    recomputed = largest_sub_dieudonne(sat, decomp.carrier("minus"))
    report.axiom_i = recomputed.equals(E)
    if not report.axiom_i:
        report.witnesses["axiom_i"] = (
            f"largest Dieudonne sublattice has rank {recomputed.rank}, "
            f"E has rank {E.rank}")
    # (ii)
    witness = _nonzero_product(crystal.ctx, crystal.rank, E.cols,
                               E.loss)
    report.axiom_ii = witness is None
    if witness is not None:
        a, b = witness
        report.witnesses["axiom_ii"] = (
            f"product of basis elements {a} and {b} is non-zero")
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
        # image span W0 = sum of y(M) over a basis of E, and the columns
        # of y span y(M)
        img = Lattice.from_columns(ctx, r, [
            col for colv in E.cols for col in zip(*vec_to_mat(colv, r))])
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
        x = SemilinearMap(ctx, vec_to_mat(colv, r))
        bracket = x.compose(t).sub(t.compose(x))
        if not _maps_equal(bracket, x):
            raise ValidationFailed(
                f"[x, t] != x on basis element {k}")
