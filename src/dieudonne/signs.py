"""Trace duality and the signed stable-lattice family on End(M).

For a set Y of slope pairs (a, b) with a < b, the corresponding positive
and negative Hom-block sums carry a perfect trace pairing.  The module
computes the integral lattices cut out of End(M), their largest
sub-Dieudonne and smallest super-Dieudonne refinements, trace duals (with
the dual/iterative cross-check), the per-pair codimension table, and the
string/slice combinatorics of slope-pair subsets.

Every signed lattice of every pair set lies in the full V_plus or V_minus
of the decomposition, so its closures and codimension run in the block
coordinates of that side's ``core.Carrier`` (rank d = sum of r_a r_b
over the pairs instead of r^2), whose restricted numerators are
certified once per decomposition; on a module that does not split
integrally the carriers are End(M) itself.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (codim_of_dieudonne, largest_sub_dieudonne, nu_image,
                   smallest_super_dieudonne, _nonzero_product)
from .errors import DualityMismatch, PrecisionExhausted, VerificationMismatch
from .isocrystal import (EndDecomposition, FIsocrystal, SlopeData,
                         signed_block_lattices)
from .lattices import Lattice, intersect, kernel_span, smith_valuations
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

    @staticmethod
    def singleton(a, b, slopes):
        return SlopePairSet([(a, b)], slopes)

    @property
    def s1(self):
        return sorted({a for (a, _) in self.pairs})

    @property
    def s2(self):
        return sorted({b for (_, b) in self.pairs})

    @property
    def is_square_zero(self):
        return not (set(self.s1) & set(self.s2))

    def subsets(self):
        out = []
        m = len(self.pairs)
        for mask in range(1 << m):
            sel = [self.pairs[i] for i in range(m) if mask >> i & 1]
            out.append(SlopePairSet(sel, self.slopes))
        return out

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

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
    exact at the working precision.  Runs at a boosted precision when K
    approaches the context exponent.
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

    def build(wctx, lcols, zcols):
        R = ring(wctx)
        # the Gram matrix: rows of L against index-transposed columns of Z
        gram = R.mul_mat(lcols, list(zip(*(_transposed(z, r)
                                             for z in zcols))))
        # the dual depth is the largest elementary divisor of the pairing
        divisors = smith_valuations(wctx, gram, neff=wctx.N - loss)
        if len(divisors) < m:
            raise PrecisionExhausted("trace pairing is degenerate")
        S = L.scale + reference.scale
        K = divisors[-1] + S + 1
        if 2 * K + 4 >= wctx.N - loss:
            return None, K
        pk = R.of_int(wctx.p ** K)
        stacked = [[gram[i][j] for i in range(m)] for j in range(m)]
        stacked += [[pk if i == j else R.zero for i in range(m)]
                    for j in range(m)]
        gens = kernel_span(wctx, stacked, zcols, wctx.N - loss, m)
        out = Lattice.from_columns(wctx, r2, gens,
                                   scale=reference.scale + K - S, loss=loss)
        if out.rank != m:
            raise PrecisionExhausted("dual coordinate lattice degenerated")
        return out, K

    # raw entries are integer representatives, valid at any precision
    out, K = build(ctx, L.cols, reference.cols)
    if out is None:
        big = ctx.with_precision(ctx.N + 2 * K + 8)
        bout, _ = build(big, L.cols, reference.cols)
        if bout is None:
            raise PrecisionExhausted("dual depth exceeded the boost")
        out = Lattice.from_columns(ctx, r2, bout.cols,
                                   scale=bout.scale, loss=loss)
    return out.folded()


class SignModuleSet:
    """The four signed stable lattices for a pair set, with their
    codimension data."""

    __slots__ = ("Y", "V_plus", "V_minus", "V_plus_minus", "V_minus_plus",
                 "O_plus", "O_minus", "O_plus_minus", "O_minus_plus",
                 "codims")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))


def sign_modules(crystal: FIsocrystal, decomp: EndDecomposition,
                 Y: SlopePairSet) -> SignModuleSet:
    """The signed lattices for Y, cross-checking each mixed module both as
    a trace dual and as an iterative closure; computed once per
    decomposition and pair set."""
    if Y.pairs not in decomp._derived:
        decomp._derived[Y.pairs] = _sign_modules(crystal, decomp, Y)
    return decomp._derived[Y.pairs]


def _sign_modules(crystal, decomp, Y):
    ctx = crystal.ctx
    if not Y.pairs:
        z = Lattice.zero(ctx, crystal.rank ** 2)
        return SignModuleSet(Y=Y, V_plus=z, V_minus=z, V_plus_minus=z,
                             V_minus_plus=z, O_plus=z, O_minus=z,
                             O_plus_minus=z, O_minus_plus=z, codims={})
    # the full pair set's block lattices and O_minus are the decomposition's
    full = Y.pairs == SlopePairSet.full(decomp.slope_data.slope_list).pairs
    if full:
        Vp, Vm = decomp.V_plus, decomp.V_minus
    else:
        Vp, Vm = signed_block_lattices(crystal, decomp.slope_data, Y.pairs)
    Vpm = dual_lattice(Vm, Vp)
    Vmp = dual_lattice(Vp, Vm)
    if not Vpm.contains(Vp):
        raise DualityMismatch("V_plus is not inside the dual of V_minus")
    if not Vmp.contains(Vm):
        raise DualityMismatch("V_minus is not inside the dual of V_plus")
    # every signed lattice lies in the full V_plus or V_minus: the
    # closures run in the block coordinates of their carriers
    plus, minus = decomp.carrier("plus"), decomp.carrier("minus")
    Op = largest_sub_dieudonne(Vp, crystal, mode="positive", carrier=plus)
    Om = decomp.o_minus() if full else largest_sub_dieudonne(
        Vm, crystal, mode="negative", carrier=minus)
    # O_plus and O_minus have full rank in V_plus and V_minus; a closure
    # that drops rank ran out of precision
    if Op.rank < Vp.rank or Om.rank < Vm.rank:
        raise PrecisionExhausted(
            "a stable-lattice closure lost rank at the working precision")
    Opm_dual = dual_lattice(Om, Vp) if Om.rank else Lattice.zero(
        ctx, crystal.rank ** 2)
    Omp_dual = dual_lattice(Op, Vm) if Op.rank else Lattice.zero(
        ctx, crystal.rank ** 2)
    Opm_iter = smallest_super_dieudonne(Vpm, crystal, mode="positive",
                                        carrier=plus)
    Omp_iter = smallest_super_dieudonne(Vmp, crystal, mode="negative",
                                        carrier=minus)
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
    codims = {"c_minus": codim_of_dieudonne(Om, crystal, carrier=minus)
              if Om.rank else 0}
    return SignModuleSet(Y=Y, V_plus=Vp, V_minus=Vm, V_plus_minus=Vpm,
                         V_minus_plus=Vmp, O_plus=Op, O_minus=Om,
                         O_plus_minus=Opm_iter, O_minus_plus=Omp_iter,
                         codims=codims)


# ---------------------------------------------------------------------------
# codimension formulas


def pair_codim_closed_form(slope_data: SlopeData, a, b) -> int:
    """r_a r_b (b - a) for a single pair."""
    ra = slope_data.multiplicity(a)
    rb = slope_data.multiplicity(b)
    val = Fraction(ra * rb) * (Fraction(b) - Fraction(a))
    assert val.denominator == 1
    return int(val)


def quasi_factor_codims(crystal: FIsocrystal, slope_data: SlopeData,
                        decomp: EndDecomposition):
    """Per-pair codimension table over all increasing slope pairs, with
    the closed form checked against the lattice computation, plus the sum
    identity against the codimension of the full negative module."""
    slopes = slope_data.slope_list
    table = {}
    total = 0
    for i, a in enumerate(slopes):
        for b in slopes[i + 1:]:
            closed = pair_codim_closed_form(slope_data, a, b)
            table[(a, b)] = closed
            total += closed
    for (a, b), closed in table.items():
        Y = SlopePairSet.singleton(a, b, slopes)
        mods = sign_modules(crystal, decomp, Y)
        lattice_side = mods.codims["c_minus"]
        if lattice_side != closed:
            raise VerificationMismatch(
                f"pair ({a},{b}): lattice codimension {lattice_side} "
                f"!= closed form {closed}")
    if len(slopes) > 1:
        Yfull = SlopePairSet.full(slopes)
        mods = sign_modules(crystal, decomp, Yfull)
        if mods.codims["c_minus"] != total:
            raise VerificationMismatch(
                f"total codimension {mods.codims['c_minus']} != "
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


def slice_report(crystal: FIsocrystal, slope_data: SlopeData,
                 decomp: EndDecomposition, Y: SlopePairSet, tangent):
    """Square-zero status, the negative stable lattice of the slice, its
    tangent dimension, the codimension (the dimension of the associated
    group structure), and the monotonicity data for subsets."""
    report = {
        "pairs": [[str(a), str(b)] for (a, b) in Y.pairs],
        "square_zero": Y.is_square_zero,
    }
    mods = sign_modules(crystal, decomp, Y)
    Om = mods.O_minus
    report["O_minus_rank"] = Om.rank
    report["c_minus"] = mods.codims.get("c_minus", 0)
    report["tangent_dimension"] = nu_image(Om, tangent)[0] if Om.rank else 0
    if Y.is_square_zero and Om.rank:
        report["square_vanishes"] = _nonzero_product(
            crystal.ctx, crystal.rank, Om.cols, Om.loss) is None
    return report, mods


def slice_monotone(crystal: FIsocrystal, decomp: EndDecomposition,
                   Y: SlopePairSet, Y1: SlopePairSet) -> bool:
    """O_minus(Y1) = O_minus(Y) cap L_minus(Y1) for Y1 inside Y."""
    if not set(Y1.pairs) <= set(Y.pairs):
        raise ValueError("Y1 must be a subset of Y")
    big = sign_modules(crystal, decomp, Y)
    small = sign_modules(crystal, decomp, Y1)
    if not Y1.pairs:
        return small.O_minus.rank == 0
    # the block lattice is saturated, so intersecting with it is the same
    # as intersecting with its rational span
    cut = intersect(big.O_minus, small.V_minus)
    return cut.equals(small.O_minus)
