"""Core lattice constructions for Dieudonne modules inside End(M).

Provides the tangent-space quotient and its projection nu, Hodge
splittings M = F^1 + F^0 with the induced block grading of End(M), the
unit-part factorization of the Frobenius through the splitting, the
largest/smallest stable-lattice fixed points, the four axiom checks for
square-zero deformation lattices, and Lie (projector) elements t with
[x, t] = x on the lattice.  Matrices and lattice columns are raw
(``matrix.ring``).

The fixed points and the codimension run on a ``Carrier``: a saturated
lattice S of End(M) of rank d, with the two conjugation numerators
restricted to its echelon basis B (N sigma(B) = B C).  On a module that
splits integrally, S of loss 0 must be the sum of its Hom(W_a, W_b)
blocks: C comes from the factors of each numerator, one r_b r_a block at
a time, and the certificate is component stability: the off-diagonal
component blocks of the factors vanish, or ``InclusionViolated``.  A
lattice inside S[1/p] is refined in Z^d and mapped back through B once,
to the same canonical presentation as the End(M) computation.  On a
module that does not split, or for a lattice with a loss, End(M) itself
is the carrier, with the identity basis.
"""

from __future__ import annotations

from .errors import (HypothesisViolated, InclusionViolated, NoAutoConstruction,
                     NonConvergence, PrecisionExhausted, SingularMap,
                     SplittingInvalid, ValidationFailed)
from .isocrystal import (FIsocrystal, Sandwich, SlopeData, end_frobenius,
                         mat_to_vec, sandwich_map, vec_to_mat,
                         _component_bases, _maps_equal)
from .lattices import (Lattice, SemilinearMap, intersect, invert_matrix,
                       kernel_span, lattice_sum, mod_p_dimension,
                       residue_echelon, residue_kernel, residue_reduce,
                       residue_spaces_equal, saturate)
from .matrix import ring


# ---------------------------------------------------------------------------
# tangent space and nu


class TangentSpace:
    """End(M/pM) modulo the endomorphisms preserving ker(phi mod p).

    nu sends an integral endomorphism to its class; the quotient has
    dimension (codimension x dimension) of the crystal.  Residue vectors
    (``fbar1``, the rows of ``f0_ech``, the classes of ``nu_matrix``) are
    raw entries in [0, p).  ``of`` returns the one built per crystal.  It
    keeps the crystal's rank, not the crystal, so the copy cached on the
    crystal makes no reference cycle: ``bench/tracer.py`` keys span inputs
    by walking their fields, and that walk would not end on a cycle.
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
        R = ring(ctx)
        # kernel of the reduced Frobenius: solve A sigma(v) = 0 over F_q
        ker = residue_kernel(ctx, crystal.phi.rows, r)
        inv_twist = (-crystal.phi.twist) % ctx.n
        self.fbar1 = [[R.rem(R.frob(c, inv_twist), ctx.p) for c in v]
                      for v in ker]
        # endomorphisms preserving fbar1: rows of conditions
        f0 = _preserving_endos(ctx, r, self.fbar1)
        self.f0_ech, self.f0_pivots = residue_echelon(ctx, f0)
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
        """Class of an integral raw r x r matrix in the quotient, as a
        residue vector on the free coordinates (raw entries in [0, p))."""
        vec = [x for row in rows for x in row]
        res = residue_reduce(self.ctx, self.f0_ech, self.f0_pivots, vec)
        return tuple(res[j] for j in self.free_cols)

    def nu_is_zero(self, vec):
        zero = ring(self.ctx).zero
        return all(x == zero for x in vec)


def _preserving_endos(ctx, r, fbar1):
    """Basis of {e in End(M/pM) : e(span) <= span}: the kernel of the
    conditions "e(v) reduces to zero modulo the span" over all span basis
    vectors v (unknowns are the r^2 entries of e, row-major); with no
    conditions, every endomorphism."""
    zero = ring(ctx).zero
    ech, pivots = residue_echelon(ctx, fbar1)
    cond_rows = []
    for v in ech:
        # the elementary matrix E_{ab} sends v to v[b] * (unit vector a)
        residuals = []
        for a in range(r):
            for b in range(r):
                img = [zero] * r
                img[a] = v[b]
                residuals.append(residue_reduce(ctx, ech, pivots, img))
        for coord in range(r):
            cond_rows.append([residuals[k][coord] for k in range(r * r)])
    return residue_kernel(ctx, cond_rows, r * r)


def nu_image(lattice: Lattice, tangent: TangentSpace):
    """(dimension, residue vectors) of the image of an integral End(M)
    lattice under nu; the vectors are its reduced echelon basis, raw
    entries in [0, p)."""
    lat = lattice.normalized()
    if lat.scale > 0:
        raise InclusionViolated("lattice is not inside End(M)")
    r = tangent.rank
    vecs = [tangent.nu_matrix(vec_to_mat(col, r)) for col in lat.cols]
    ech, _ = residue_echelon(tangent.ctx, vecs)
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
        self.P_rows = [list(row) for row in zip(*(f1_cols + f0_cols))]
        try:
            pinv, vdet = invert_matrix(ctx, self.P_rows)
        except (SingularMap, PrecisionExhausted) as exc:
            raise SplittingInvalid(f"basis change not invertible: {exc}")
        if vdet != 0:
            raise SplittingInvalid("F1 + F0 does not span M (non-unit index)")
        self.Pinv_rows = pinv
        # F1 mod p must be the kernel of the reduced Frobenius
        tangent_ker = TangentSpace.of(crystal).fbar1
        if not residue_spaces_equal(ctx, tangent_ker, f1_cols):
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
        scale = ring(ctx).scale
        r = self.crystal.rank
        gens = []
        for i in range(r):
            for j in range(r):
                if self.weight_of_position(i, j) not in weights:
                    continue
                # P E_ij P^{-1}: column i of P times row j of P^{-1}
                gens.append([x for prow in self.P_rows
                             for x in scale(self.Pinv_rows[j], prow[i])])
        if not gens:
            return Lattice.zero(ctx, r * r)
        return Lattice.from_columns(ctx, r * r, gens)

    def hom_f1_f0(self) -> Lattice:
        return self.block_lattice({1})

    def diagonal_blocks(self) -> Lattice:
        return self.block_lattice({0})

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
    prod = R.mul_mat(crystal.phi.rows,
                     [[R.frob(x, e) for x in row]
                      for row in split.mu_numerator()])
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
    A).  Both are ``Sandwich`` maps, held by their factors (L, R) and
    twist: the carriers read the factors, and ``apply_raw`` builds the
    r^2 x r^2 numerator on first use.  Each is computed once per
    crystal."""
    return (end_frobenius(crystal),) + _backward_numerator(crystal)


def _backward_numerator(crystal):
    """(bwd, vdet): the numerator sigma^{-1}(A_adj x A) of x -> phi^{-1} x
    phi on End(M), which is p^{-vdet} times it, as a ``Sandwich``;
    computed once per crystal and cached apart from ``end_frobenius``,
    which the trivializer does not need."""
    if "backward" not in crystal._derived:
        ctx = crystal.ctx
        ainv, vdet = crystal.inverse_numerator()
        e = (-1) % ctx.n
        frob = ring(ctx).frob
        left = [[frob(x, e) for x in row] for row in ainv]
        bwd_num = Sandwich(ctx, left, crystal.phi._twisted_rows(e),
                           twist=e, denominator=vdet, loss=crystal.phi.loss)
        crystal._derived["backward"] = (bwd_num, vdet)
    return crystal._derived["backward"]


class Carrier:
    """A saturated lattice S of End(M) that both conjugation numerators
    map into itself, in block coordinates.

    ``lattice`` is S; its processing-order echelon B (``S.ech``) has unit
    pivots, so B is a basis of S and S is a direct summand of End(M).
    ``fwd`` and ``bwd`` are the numerators restricted to S: the d x d
    semilinear maps C with N sigma(B) = B C.  A lattice L inside S[1/p]
    is handled as its coordinate lattice X in Z^d with B X = L
    (``coords``), and mapped back once (``lift``).  As S is saturated, X
    and L have the same rank, pivot valuations and memberships, so a
    closure and its certificates take the same steps on X as on L, at
    rank d instead of r^2.

    There are two carriers.  On a module that splits integrally, a
    lattice S of loss 0 that is the sum of its Hom(W_src, W_dst) blocks
    gets the block carrier: C comes from the component blocks (see
    ``_block_restricted``), certified by component stability, the factors
    of each numerator sending every component into its own.  Every other
    lattice (a module that does not split, or a lattice with a loss) gets
    ``Carrier.ambient(crystal)``: End(M) itself, with the identity basis
    (``lattice`` None, the numerators as they are).

    A carrier keeps neither the crystal nor a decomposition: it is cached
    in ``EndDecomposition._derived``, and ``bench/tracer.py`` keys span
    inputs by walking their fields, a walk that would not end on a cycle.
    """

    __slots__ = ("lattice", "fwd", "bwd", "vdet")

    def __init__(self, lattice, fwd, bwd, vdet):
        self.lattice = lattice
        self.fwd = fwd
        self.bwd = bwd
        self.vdet = vdet

    @classmethod
    def ambient(cls, crystal: FIsocrystal) -> "Carrier":
        return cls(None, *_conjugation_numerators(crystal))

    @classmethod
    def of(cls, S: Lattice, crystal: FIsocrystal, slope_data: SlopeData,
           blocks) -> "Carrier":
        """The carrier on a saturated integral lattice S of End(M), the sum
        of the Hom blocks ``blocks`` (``(src, dst)`` slope pairs of
        ``slope_data``).  On a module that splits it raises
        InclusionViolated when S is not the sum of those blocks (see
        ``_block_rows``) or a numerator does not map S into itself.

        A module that does not split integrally has no block factors, and
        a basis with a loss is trusted only modulo p^(N - loss), so its
        coordinates would not reproduce the End(M) computation digit for
        digit: either way S is handled as End(M), through the ambient
        carrier.
        """
        if S.scale or any(e for (_, e) in S.ech_pivots):
            raise InclusionViolated(
                "a carrier needs a saturated integral lattice")
        bases = _component_bases(slope_data)
        if S.loss or bases is None:
            return cls.ambient(crystal)
        fwd, bwd, vdet = _conjugation_numerators(crystal)
        T, tinv = _block_rows(S, bases, blocks)
        return cls(S, *(_block_restricted(num, bases, blocks, T, tinv)
                        for num in (fwd, bwd)), vdet)

    def coords(self, V: Lattice) -> Lattice:
        """The coordinate lattice of V, which must lie in S[1/p]."""
        S = self.lattice
        if S is None:
            return V
        xs = []
        for col in V.cols:
            x = S.solve(col)
            if x is None:
                raise InclusionViolated("lattice is not inside its carrier")
            xs.append(x)
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


def _block_restricted(num, bases, blocks, T, tinv) -> SemilinearMap:
    """The matrix C with num sigma(B) = B C, from the factors of the
    ``Sandwich`` num: x -> L sigma^t(x) R, without an r^2 x r^2 product.

    With U = (U_a) and D = (D_a) stacked over the components, the block
    (b, a) of D L sigma^t(U) is D_b L sigma^t(U_a) and that of
    sigma^t(D) R U is sigma^t(D_a) R U_b.  Every off-diagonal one must
    vanish modulo p^(N - loss), or InclusionViolated: then num maps the
    block x = U_dst X D_src to U_dst P_dst sigma^t(X) Q_src D_src, with
    P_a = D_a L sigma^t(U_a) and Q_a = sigma^t(D_a) R U_a.  On the block
    coordinates z = T c of the basis B of S (T from ``_block_rows``, its
    rows in the order of ``blocks``) num is the block-diagonal C_B of
    those r_dst r_src maps, so C = T^{-1} C_B sigma^t(T)."""
    ctx = num.ctx
    R = ring(ctx)
    t = num.twist
    neff = ctx.N - num.loss

    def tw(m):
        return [[R.frob(x, t) for x in row] for row in m] if t else m

    P, Q = {}, {}
    for a, (Ua, Da) in bases.items():
        lu = R.mul_mat(num.left, tw(Ua))
        rd = R.mul_mat(tw(Da), num.right)
        for b, (Ub, Db) in bases.items():
            left, right = R.mul_mat(Db, lu), R.mul_mat(rd, Ub)
            if a == b:
                P[a], Q[a] = left, right
            elif not all(R.vanishes(row, neff) for row in left + right):
                raise InclusionViolated(
                    "block lattice is not stable under a conjugation "
                    "numerator")
    tT = tw(T)
    mid, at = [], 0
    for (src, dst) in blocks:
        size = len(P[dst]) * len(Q[src])
        block = sandwich_map(ctx, P[dst], Q[src]).rows
        mid += R.mul_mat(block, tT[at:at + size])
        at += size
    return SemilinearMap(ctx, R.mul_mat(tinv, mid), twist=t, loss=num.loss)


def _block_rows(S: Lattice, bases, blocks):
    """(T, T^{-1}): T stacks, block by block in the order of
    ``blocks``, the rows of D_dst x U_src on the basis B of S, so that its
    column c holds the block coordinates of the basis vector c.

    S must be the sum of the blocks: T square, and every basis vector the
    sum of its block components U_dst X D_src, or InclusionViolated.  Then
    B = W T with B of unit pivots, so T is invertible modulo p, hence
    over W."""
    ctx = S.ctx
    R = ring(ctx)
    T = []
    for (src, dst) in blocks:
        U, D = bases[src][0], bases[dst][1]
        # row (a, b) of the transposed map x -> D x U holds D[i][a] U[b][j]
        # at (i, j), so one product reads the block of every basis vector
        reader = sandwich_map(ctx, list(zip(*D)), list(zip(*U))).rows
        T += [list(row) for row in zip(*R.mul_mat(S.ech, reader))]
    # row (i, j) of W holds U_dst[i][a] D_src[b][j] at (a, b) of each
    # block, so column c of W T is the sum of the block components of the
    # basis vector c
    factors = [(bases[dst][0], list(zip(*bases[src][1])))
               for (src, dst) in blocks]
    r = len(next(iter(bases.values()))[0])
    W = [[R.mul(u, v) for U, Dc in factors for u in U[i] for v in Dc[j]]
         for i in range(r) for j in range(r)]
    if len(T) != S.rank or list(zip(*R.mul_mat(W, T))) != list(S.ech):
        raise InclusionViolated(
            "lattice is not the sum of its Hom blocks")
    return T, invert_matrix(ctx, T)[0]


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


def largest_sub_dieudonne(V: Lattice, crystal: FIsocrystal,
                          mode: str = "negative", carrier=None) -> Lattice:
    """Largest sublattice O of V that is a Dieudonne lattice for the
    appropriate twist of the conjugation Frobenius.

    mode "negative": (O, p phi) Dieudonne, i.e. phi^{-1}(O) <= O and
    p phi(O) <= O (for lattices of negative slopes).
    mode "positive": (O, phi) Dieudonne, i.e. phi(O) <= O and
    p phi^{-1}(O) <= O (for lattices of positive slopes).

    With a ``Carrier`` whose lattice contains V, the refinement and its
    certificates run in the carrier's block coordinates; the result is
    the same, in the same canonical presentation.
    """
    c = Carrier.ambient(crystal) if carrier is None else carrier
    fwd, bwd, vdet = c.fwd, c.bwd, c.vdet
    if mode == "negative":
        # phi^{-1}(x) in E  <=>  bwd(x) in p^vdet E
        refine = bwd
        checks = [(bwd, vdet, "phi^{-1}"), (fwd, vdet - 1, "p phi")]
    elif mode == "positive":
        refine = fwd
        checks = [(fwd, vdet, "phi"), (bwd, vdet - 1, "p phi^{-1}")]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = _membership_refine(c.coords(V), refine, vdet, _iteration_cap(V))
    _certify_stable(out, checks)
    return c.lift(out)


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
    for c in E.cols:
        img = num_map.apply_raw(c)
        if up:
            img = R.scale(img, pk)
        if target.solve(img, target.scale) is None:
            return False
    return True


def smallest_super_dieudonne(V: Lattice, crystal: FIsocrystal,
                             mode: str = "positive", carrier=None
                             ) -> Lattice:
    """Smallest Dieudonne lattice containing V.

    mode "positive": stability under phi and p phi^{-1};
    mode "negative": stability under p phi and phi^{-1}.

    A ``carrier`` containing V runs the closure in block coordinates, as
    in ``largest_sub_dieudonne``.
    """
    c = Carrier.ambient(crystal) if carrier is None else carrier
    fwd, bwd, vdet = c.fwd, c.bwd, c.vdet
    if mode == "positive":
        # phi = p^-vdet fwd ; p phi^{-1} = p^{1-vdet} bwd
        steps = [(fwd, 0), (bwd, 1)]
        checks = [(fwd, vdet, "phi"), (bwd, vdet - 1, "p phi^{-1}")]
    elif mode == "negative":
        steps = [(fwd, 1), (bwd, 0)]
        checks = [(fwd, vdet - 1, "p phi"), (bwd, vdet, "phi^{-1}")]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = smallest_stable_superlattice(c.coords(V), steps, vdet,
                                       _iteration_cap(V))
    _certify_stable(out, checks)
    return c.lift(out)


# ---------------------------------------------------------------------------
# codimension


def codim_of_dieudonne(E: Lattice, crystal: FIsocrystal,
                       carrier=None) -> int:
    """Codimension of (E, p phi): colength of the Verschiebung image
    phi^{-1}(E) in E, in the block coordinates of ``carrier`` when given.

    The image is presented with its p-denominator in the scale (no
    content division), so its basis stays exact and the colength decision
    runs at full precision minus the scale gap.
    """
    c = Carrier.ambient(crystal) if carrier is None else carrier
    X = c.coords(E)
    img = Lattice.from_columns(
        X.ctx, X.ambient, [c.bwd.apply_raw(col) for col in X.cols],
        scale=X.scale + c.vdet, loss=X.loss)
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


def check_axioms(E: Lattice, crystal: FIsocrystal, V_minus: Lattice,
                 split: HodgeSplitting | None = None,
                 carrier: Carrier | None = None) -> AxiomReport:
    """The four axioms for a deformation lattice E inside the negative
    part: (i) maximality of (E, p phi) in E[1/p] cap V_-, (ii) E^2 = 0,
    and for a supplied splitting (iii) compatibility with the block
    grading and (iv) the unit-part decomposition of E.  A carrier of
    V_minus runs the refinement of (i) in its block coordinates."""
    report = AxiomReport()
    report.ranks["E"] = E.rank
    # (i)
    sat = saturate(E, V_minus)
    recomputed = largest_sub_dieudonne(sat, crystal, mode="negative",
                                       carrier=carrier)
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
        # image span W0 = sum of y(M) over a basis of E
        img = Lattice.zero(ctx, r)
        for colv in E.cols:
            # the columns of y span y(M)
            img = lattice_sum(img, Lattice.from_columns(
                ctx, r, list(zip(*vec_to_mat(colv, r)))))
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
