"""Trace duality and the signed stable-lattice family on End(M).

For a set Y of slope pairs (a, b) with a < b, the corresponding positive
and negative Hom-block sums carry a perfect trace pairing.  The module
computes the integral lattices cut out of End(M), their largest
sub-Dieudonne and smallest super-Dieudonne refinements, trace duals (with
the dual/iterative cross-check), the per-pair codimension table, and the
string/slice combinatorics of slope-pair subsets.

Every function takes the ``EndDecomposition``, which holds the crystal,
its slope data and O_minus(Y) and c_minus(Y) of every pair set Y
(``EndDecomposition.o_minus`` and ``c_minus``), with their sum rule and
the full set's certificate; the codimension table and the slices read
them there, and only the trace duals build sign modules.  Every pair set
whose sign modules are computed directly runs one body: its signed
lattices are ``EndDecomposition.signed``, and its closures run on the
decomposition's ``core.Carrier`` of each sign.  On a module that splits
integrally both conjugation numerators preserve each Hom(W_a, W_b), so
every one of these lattices is the sum of those of the pairs of Y
(``EndDecomposition._parts``): each pair is computed once per
decomposition, with all its cross-checks, in the coordinates of its own
two carriers (one per sign, of rank r_a r_b instead of r^2), and every
larger pair set is assembled as a sum.  On a module that does not split,
each pair set is computed directly, and its carriers are End(M) itself.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (largest_sub_dieudonne, nu_image, smallest_super_dieudonne,
                   _nonzero_product)
from .errors import DualityMismatch, PrecisionExhausted, VerificationMismatch
from .isocrystal import EndDecomposition, SlopeData
from .lattices import (Lattice, boosted, intersect, kernel_span,
                       lattice_sum, smith_valuations)
from .matrix import ring


class SlopePairSet:
    """A subset Y of {(a, b) : a < b slopes}; square-zero when no slope
    occurs both as a source and as a target."""

    __slots__ = ("pairs", "slopes")

    def __init__(self, pairs, slopes):
        slopeset = set(slopes)
        pairs = tuple(sorted(set(pairs)))
        for (a, b) in pairs:
            if a >= b:
                raise ValueError(f"pair ({a}, {b}) is not increasing")
            if a not in slopeset or b not in slopeset:
                raise ValueError(f"pair ({a}, {b}) uses unknown slopes")
        self.pairs = pairs
        self.slopes = tuple(sorted(slopeset))

    @staticmethod
    def full(slopes):
        s = sorted(slopes)
        return SlopePairSet([(a, b) for i, a in enumerate(s)
                             for b in s[i + 1:]], s)

    @property
    def is_square_zero(self):
        return not ({a for (a, _) in self.pairs}
                    & {b for (_, b) in self.pairs})

    def __repr__(self):
        return f"SlopePairSet({list(self.pairs)})"


# ---------------------------------------------------------------------------
# trace pairing


def _transposed(vec, r):
    """The flattened transpose of a flattened r x r matrix."""
    return [vec[j * r + i] for i in range(r) for j in range(r)]


def trace_of_vectors(ctx, r, xvec, yvec):
    """Trace of the product of two flattened raw endomorphisms: the dot
    product of x with the flattened transpose of y."""
    return ring(ctx).dot(xvec, _transposed(yvec, r))


# ---------------------------------------------------------------------------
# signed block lattices


def dual_lattice(L: Lattice, reference: Lattice) -> Lattice:
    """Trace dual of L inside the opposite block span, presented on the
    basis of a reference lattice spanning that opposite side.

    The dual { w : Tr(L, w) integral } is computed division-free: with T
    the Gram matrix of the two bases and K bounding the denominator depth,
    the coordinate lattice { c : T c = 0 mod p^K } (a stacked kernel)
    gives the dual as a p^{-K}-scaled span, so the published basis is
    exact at the working precision.  When K approaches the context
    exponent, the pairing and the kernel are recomputed with 2K + 8 extra
    digits (``lattices.boosted``).
    """
    ctx = L.ctx
    if L.rank == 0 and reference.rank == 0:
        return Lattice.zero(ctx, L.ambient)
    if L.rank != reference.rank:
        raise ValueError("dual requires spans of equal dimension")
    r2 = L.ambient
    r = int(round(r2 ** 0.5))
    assert r * r == r2
    m = L.rank
    loss = max(L.loss, reference.loss)
    S = L.scale + reference.scale

    # raw entries are integer representatives, valid at any precision
    def pairing(wctx):
        R = ring(wctx)
        # the Gram matrix: rows of L against index-transposed columns of Z
        gram = R.mul_mat(L.cols, list(zip(*(_transposed(z, r)
                                              for z in reference.cols))))
        # the dual depth is the largest elementary divisor of the pairing;
        # a divisor that vanishes counts as N - loss, which ``build``
        # refuses, at the context and at the boost
        divisors = smith_valuations(wctx, gram, neff=wctx.N - loss)
        return gram, divisors[-1] + S + 1

    def build(wctx, gram, K):
        if 2 * K + 4 >= wctx.N - loss:
            raise PrecisionExhausted("dual depth exceeded the boost")
        R = ring(wctx)
        pk = R.of_int(wctx.p ** K)
        stacked = [[gram[i][j] for i in range(m)] for j in range(m)]
        stacked += [[pk if i == j else R.zero for i in range(m)]
                    for j in range(m)]
        gens = kernel_span(wctx, stacked, reference.cols, wctx.N - loss, m)
        out = Lattice.from_columns(wctx, r2, gens,
                                   scale=reference.scale + K - S, loss=loss)
        if out.rank != m:
            raise PrecisionExhausted("dual coordinate lattice degenerated")
        return out if wctx is ctx else Lattice.from_columns(
            ctx, r2, out.cols, scale=out.scale, loss=loss)

    gram, K = pairing(ctx)
    if 2 * K + 4 < ctx.N - loss:
        return build(ctx, gram, K)
    return boosted(ctx, (2 * K + 8,), lambda big: build(big, *pairing(big)))


SIGNED_LATTICES = ("V_plus", "V_minus", "V_plus_minus", "V_minus_plus",
                   "O_plus", "O_minus", "O_plus_minus", "O_minus_plus")


class SignModuleSet:
    """The four signed stable lattices for a pair set, and the block
    lattices and trace duals they refine."""

    __slots__ = ("Y",) + SIGNED_LATTICES

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))


def sign_modules(decomp: EndDecomposition, Y: SlopePairSet
                 ) -> SignModuleSet:
    """The signed lattices for Y, cross-checking each mixed module both as
    a trace dual and as an iterative closure; computed once per
    decomposition and pair set."""
    if Y.pairs not in decomp._derived:
        decomp._derived[Y.pairs] = _sign_modules(decomp, Y)
    return decomp._derived[Y.pairs]


def _sign_modules(decomp, Y):
    crystal = decomp.crystal
    ctx = crystal.ctx
    if not Y.pairs:
        z = Lattice.zero(ctx, crystal.rank ** 2)
        return SignModuleSet(Y=Y, **dict.fromkeys(SIGNED_LATTICES, z))
    parts = decomp._parts(Y.pairs)
    if parts:
        return _assembled(decomp, Y, parts)
    Vp, Vm = decomp.signed(Y.pairs)
    plus, minus = (decomp.carrier(sign, Y.pairs)
                   for sign in ("plus", "minus"))
    Vpm = dual_lattice(Vm, Vp)
    Vmp = dual_lattice(Vp, Vm)
    if not Vpm.contains(Vp):
        raise DualityMismatch("V_plus is not inside the dual of V_minus")
    if not Vmp.contains(Vm):
        raise DualityMismatch("V_minus is not inside the dual of V_plus")
    Op = largest_sub_dieudonne(Vp, plus)
    # O_plus has full rank in V_plus; a closure that drops rank ran out of
    # precision (``decomp.o_minus`` guards O_minus the same way)
    if Op.rank < Vp.rank:
        raise PrecisionExhausted(
            "a stable-lattice closure lost rank at the working precision")
    Om = decomp.o_minus(Y.pairs)
    Opm_dual = dual_lattice(Om, Vp) if Om.rank else Lattice.zero(
        ctx, crystal.rank ** 2)
    Omp_dual = dual_lattice(Op, Vm) if Op.rank else Lattice.zero(
        ctx, crystal.rank ** 2)
    Opm_iter = smallest_super_dieudonne(Vpm, plus)
    Omp_iter = smallest_super_dieudonne(Vmp, minus)
    if not Opm_dual.equals(Opm_iter):
        raise DualityMismatch(
            "dual of O_minus disagrees with the iterative closure of "
            "the dual block")
    if not Omp_dual.equals(Omp_iter):
        raise DualityMismatch(
            "dual of O_plus disagrees with the iterative closure of "
            "the dual block")
    if not Opm_iter.contains(Op):
        raise DualityMismatch("O_plus not inside O_plus_minus")
    if not Omp_iter.contains(Om):
        raise DualityMismatch("O_minus not inside O_minus_plus")
    return SignModuleSet(Y=Y, V_plus=Vp, V_minus=Vm, V_plus_minus=Vpm,
                         V_minus_plus=Vmp, O_plus=Op, O_minus=Om,
                         O_plus_minus=Opm_iter, O_minus_plus=Omp_iter)


def _assembled(decomp, Y, parts):
    """The sign modules of a pair set on a module that splits integrally:
    both conjugation numerators preserve every Hom block, so each signed
    lattice is the sum of those of the one-pair sets ``parts``.  Each pair
    is computed, with all its cross-checks, once per decomposition;
    O_minus is the decomposition's (``EndDecomposition.o_minus``)."""
    mods = [sign_modules(decomp, SlopePairSet(part, Y.slopes))
            for part in parts]
    out = {name: lattice_sum(*(getattr(m, name) for m in mods))
           for name in SIGNED_LATTICES if name != "O_minus"}
    return SignModuleSet(Y=Y, O_minus=decomp.o_minus(Y.pairs), **out)


# ---------------------------------------------------------------------------
# codimension formulas


def pair_codim_closed_form(slope_data: SlopeData, a, b) -> int:
    """r_a r_b (b - a) for a single pair."""
    ra = slope_data.multiplicity(a)
    rb = slope_data.multiplicity(b)
    val = Fraction(ra * rb) * (Fraction(b) - Fraction(a))
    assert val.denominator == 1
    return int(val)


def quasi_factor_codims(decomp: EndDecomposition):
    """Per-pair codimension table over all increasing slope pairs, with
    the closed form checked against the lattice computation, plus the sum
    identity against the codimension of the full negative module."""
    table = {(a, b): pair_codim_closed_form(decomp.slope_data, a, b)
             for (a, b) in decomp.pairs}
    total = sum(table.values())
    for (a, b), closed in table.items():
        lattice_side = decomp.c_minus(((a, b),))
        if lattice_side != closed:
            raise VerificationMismatch(
                f"pair ({a},{b}): lattice codimension {lattice_side} "
                f"!= closed form {closed}")
    if table and decomp.c_minus() != total:
        raise VerificationMismatch(
            f"total codimension {decomp.c_minus()} != "
            f"sum of quasi-factor codimensions {total}")
    return table, total


# ---------------------------------------------------------------------------
# strings and slices


def strings(slope_data: SlopeData):
    """Lower and upper strings: pairs ending at, resp. starting from,
    each slope."""
    slopes = slope_data.slope_list
    lower = {}
    upper = {}
    for a in slopes:
        lower[a] = [(b, a) for b in slopes if b < a]
        upper[a] = [(a, b) for b in slopes if b > a]
    return lower, upper


def slice_chain(slopes, level: int):
    """The square-zero set {(s_i, s_j) : i <= level < j} for sorted
    slopes; it has level*(m-level) elements."""
    s = sorted(slopes)
    m = len(s)
    if not 1 <= level <= m - 1:
        raise ValueError("level out of range")
    pairs = [(s[i], s[j]) for i in range(level) for j in range(level, m)]
    return SlopePairSet(pairs, s)


def max_square_zero_size(m: int) -> int:
    """Largest possible size of a square-zero pair set on m slopes."""
    half = m // 2
    return half * (m - half)


def slice_report(decomp: EndDecomposition, Y: SlopePairSet, tangent):
    """Square-zero status, the negative stable lattice of the slice, its
    tangent dimension, and the codimension (the dimension of the
    associated group structure)."""
    crystal = decomp.crystal
    Om = decomp.o_minus(Y.pairs)
    report = {
        "pairs": [[str(a), str(b)] for (a, b) in Y.pairs],
        "square_zero": Y.is_square_zero,
        "O_minus_rank": Om.rank,
        "c_minus": decomp.c_minus(Y.pairs),
        "tangent_dimension": nu_image(Om, tangent)[0] if Om.rank else 0,
    }
    if Y.is_square_zero and Om.rank:
        report["square_vanishes"] = _nonzero_product(
            crystal.ctx, crystal.rank, Om.cols, Om.loss) is None
    return report


def slice_monotone(decomp: EndDecomposition, Y: SlopePairSet,
                   Y1: SlopePairSet) -> bool:
    """O_minus(Y1) = O_minus(Y) cap L_minus(Y1) for Y1 inside Y."""
    if not set(Y1.pairs) <= set(Y.pairs):
        raise ValueError("Y1 must be a subset of Y")
    if not Y1.pairs:
        return True
    # the block lattice is saturated, so intersecting with it is the same
    # as intersecting with its rational span
    cut = intersect(decomp.o_minus(Y.pairs), decomp.signed(Y1.pairs)[1])
    return cut.equals(decomp.o_minus(Y1.pairs))
