"""Lattice and semilinear-map algebra over the truncated Witt ring.

A lattice is p^{-scale} times the column span of an integral basis matrix
inside an ambient free module of fixed rank; storing the scale separately
keeps every coefficient in Z/p^N.  Canonical (Hermite) bases make equality
decidable: pivots are unit-normalized p-powers, columns are ordered by
pivot row, and off-pivot entries in pivot rows are reduced modulo the
pivot.  Pivoting always selects a remaining entry of minimal valuation
(ties: lowest row, then lowest column), so eliminations divide exactly and
cost no precision.

Every elimination in the package goes through this module's primitives:

- echelon: ``_reduce_columns``, the one pivot loop (optionally tracking
  the column transform and the combinations that vanish);
- substitution: ``_back_substitute``, peeling a vector through an echelon
  (``Lattice.solve`` and ``invert_matrix``);
- ``kernel_span``: the saturated kernel of stacked columns, recombined on
  a basis (intersections, stable-sublattice refinement, trace duals);
- Smith: ``smith_valuations``, the sorted pivot valuations of the echelon.

Products and recombinations are ``matrix.mat_mul``.

Semilinear maps are v |-> p^{-denominator} * A * sigma^twist(v).
"""

from __future__ import annotations

from . import modp
from .errors import InclusionViolated, PrecisionExhausted, SingularMap
from .matrix import identity, mat_mul, transport
from .witt import WittScalar


def _col_is_zero(col, neff):
    return all(x.valuation() >= neff for x in col)


def _reduce_columns(ctx, cols, neff, track=False, nrows=None):
    """Column echelon form over the DVR at effective precision neff.

    Returns (ech_cols, pivots, transform, kernel_transform) where
    ``ech_cols``/``pivots`` are in processing order (column t has zeros at
    the pivot rows of columns s < t), ``transform`` maps original columns
    to the echelon ones, and ``kernel_transform`` holds the combinations
    that became effectively zero.  Transforms are None unless ``track``.
    """
    if neff <= 0:
        raise PrecisionExhausted("no effective precision left for reduction")
    m = len(cols)
    work = [list(c) for c in cols]
    r = nrows if nrows is not None else (len(work[0]) if work else 0)
    trans = identity(m, ctx.zero, ctx.one) if track else None
    # trans[j] tracks the combination of original columns giving work[j]
    used_rows = set()
    order = []           # indices into work, processing order
    pivots = []          # (row, val) aligned with order
    remaining = list(range(m))
    while remaining:
        best = None
        for j in remaining:
            col = work[j]
            for i in range(r):
                if i in used_rows:
                    continue
                v = col[i].valuation()
                if v >= neff:
                    continue
                key = (v, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        e, prow, pj = best
        remaining.remove(pj)
        pcol = work[pj]
        # normalize so the pivot entry is exactly p^e
        unit = pcol[prow].divide_p(e)
        uinv = unit.inverse()
        work[pj] = [x * uinv for x in pcol]
        if track:
            trans[pj] = [x * uinv for x in trans[pj]]
        pcol = work[pj]
        for j in remaining:
            col = work[j]
            entry = col[prow]
            if entry.is_zero():
                continue
            q = entry.divide_p(e)
            work[j] = [col[i] - q * pcol[i] for i in range(r)]
            work[j][prow] = ctx.zero
            if track:
                tj, tp = trans[j], trans[pj]
                trans[j] = [tj[i] - q * tp[i] for i in range(m)]
        used_rows.add(prow)
        order.append(pj)
        pivots.append((prow, e))
    ech = [work[j] for j in order]
    tr = [trans[j] for j in order] if track else None
    kern = None
    if track:
        kern = []
        for j in remaining:
            if _col_is_zero(work[j], neff):
                kern.append(trans[j])
    else:
        for j in remaining:
            if not _col_is_zero(work[j], neff):  # pragma: no cover
                raise AssertionError("unpivoted nonzero column")
    return ech, pivots, tr, kern


def _back_substitute(ech, pivots, vec):
    """(coords, residual) with vec = sum_t coords[t] * ech[t] + residual,
    peeled through the echelon in processing order; coords is None when a
    pivot does not divide its entry of the remaining vector."""
    coords = []
    for col, (prow, e) in zip(ech, pivots):
        entry = vec[prow]
        if entry.valuation() < e:
            return None, vec
        q = entry.divide_p(e)
        coords.append(q)
        vec = [x - q * c for x, c in zip(vec, col)]
    return coords, vec


def _cross_reduce(ctx, ech, pivots):
    """Reduce off-pivot entries in pivot rows modulo the pivots (canonical
    second phase); preserves the processing-order triangular structure."""
    m = len(ech)
    cols = [list(c) for c in ech]
    for s in range(m):
        prow, e = pivots[s]
        pe = ctx.p ** e
        for t in range(m):
            if t == s:
                continue
            entry = cols[t][prow]
            if entry.is_zero():
                continue
            rem = ctx.scalar([x % pe for x in entry.c])
            q = (entry - rem).divide_p(e)
            if q.is_zero():
                continue
            cs = cols[s]
            cols[t] = [cols[t][i] - q * cs[i] for i in range(len(cs))]
            cols[t][prow] = rem
    return cols


class Lattice:
    """p^{-scale} times the span of canonical basis columns.

    ``cols``/``pivots`` are the canonical presentation (sorted by pivot
    row); ``ech``/``ech_pivots`` keep the processing-order echelon used for
    membership solves.
    """

    __slots__ = ("ctx", "ambient", "cols", "pivots", "scale", "loss",
                 "ech", "ech_pivots")

    def __init__(self, ctx, ambient, cols, pivots, scale, loss, ech,
                 ech_pivots):
        self.ctx = ctx
        self.ambient = ambient
        self.cols = cols
        self.pivots = pivots
        self.scale = scale
        self.loss = loss
        self.ech = ech
        self.ech_pivots = ech_pivots

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_columns(ctx, ambient, columns, scale=0, loss=0):
        """Canonicalize arbitrary generating columns (dependent generators
        are dropped at the working precision).

        Refuses once half the precision has been spent: results would no
        longer be trustworthy, and the caller should rebuild the context
        with a larger exponent.
        """
        if 2 * loss >= ctx.N:
            raise PrecisionExhausted(
                f"accumulated loss {loss} has consumed half the working "
                f"precision {ctx.N}; raise the precision exponent")
        neff = ctx.N - loss
        cols = [[ctx.scalar(x) for x in col] for col in columns]
        for col in cols:
            if len(col) != ambient:
                raise ValueError("column length does not match ambient rank")
        ech, pivots, _, _ = _reduce_columns(ctx, cols, neff, nrows=ambient)
        canon = _cross_reduce(ctx, ech, pivots)
        order = sorted(range(len(canon)), key=lambda t: pivots[t][0])
        ccols = [tuple(canon[t]) for t in order]
        cpivs = [pivots[t] for t in order]
        return Lattice(ctx, ambient, tuple(ccols), tuple(cpivs), scale, loss,
                       tuple(tuple(c) for c in ech), tuple(pivots))

    @staticmethod
    def standard(ctx, rank):
        return Lattice.from_columns(ctx, rank,
                                    identity(rank, ctx.zero, ctx.one))

    @staticmethod
    def zero(ctx, ambient):
        return Lattice(ctx, ambient, (), (), 0, 0, (), ())

    @staticmethod
    def from_int_columns(ctx, ambient, columns, scale=0):
        cols = [[ctx.scalar(x) for x in col] for col in columns]
        return Lattice.from_columns(ctx, ambient, cols, scale=scale)

    # -- basic queries ---------------------------------------------------------

    @property
    def rank(self):
        return len(self.cols)

    @property
    def neff(self):
        return self.ctx.N - self.loss

    def basis_columns(self):
        """Canonical integral basis columns (the lattice is p^{-scale}
        times their span)."""
        return [list(c) for c in self.cols]

    def with_loss(self, loss):
        if loss == self.loss:
            return self
        return Lattice(self.ctx, self.ambient, self.cols, self.pivots,
                       self.scale, loss, self.ech, self.ech_pivots)

    def folded(self):
        """Fold a negative scale into the basis (multiplication only, so
        always exact); positive scales are kept as presentation."""
        if self.scale >= 0 or not self.cols:
            return self if self.scale >= 0 else Lattice.zero(
                self.ctx, self.ambient).with_loss(self.loss)
        m = self.ctx.p ** (-self.scale)
        cols = [[x * m for x in col] for col in self.cols]
        return Lattice.from_columns(self.ctx, self.ambient, cols,
                                    scale=0, loss=self.loss)

    def normalized(self):
        """Canonical (scale, basis) presentation: non-negative scale, and
        either the scale is zero or the basis has no p-content to cancel.

        Cancelling content divides basis entries, whose quotients are only
        defined modulo p^{N - content}; use only where downstream
        consumers read low digits (residues, ranks) or tolerate the
        presentation ambiguity."""
        if not self.cols:
            if self.scale == 0 and self.loss == 0:
                return self
            return Lattice.zero(self.ctx, self.ambient).with_loss(self.loss)
        if self.scale < 0:
            m = self.ctx.p ** (-self.scale)
            cols = [[x * m for x in col] for col in self.cols]
            return Lattice.from_columns(self.ctx, self.ambient, cols,
                                        scale=0, loss=self.loss)
        content = min(min(x.valuation() for x in col) for col in self.cols)
        take = min(content, self.scale)
        if take <= 0:
            return self
        cols = [[x.divide_p(take) for x in col] for col in self.cols]
        return Lattice.from_columns(self.ctx, self.ambient, cols,
                                    scale=self.scale - take, loss=self.loss)

    def solve(self, vector, vscale=0):
        """Coordinates of p^{-vscale} * vector in this lattice, or None.

        The returned coordinate vector x satisfies basis * x = vector up to
        scales; non-integral coordinates mean non-membership.  When the
        scale gap forces a division of the vector, its quotient is only
        defined modulo p^{N - gap}, so the residual test runs at that
        reduced level (the membership decision itself needs no more).
        """
        ctx = self.ctx
        neff = self.neff
        shift = self.scale - vscale
        vec = [ctx.scalar(v) for v in vector]
        if shift > 0:
            vec = [x * (ctx.p ** shift) for x in vec]
        elif shift < 0:
            try:
                vec = [x.divide_p(-shift) for x in vec]
            except PrecisionExhausted:
                return None
            neff -= -shift
            if neff <= 0:
                raise PrecisionExhausted(
                    "scale gap exhausted the working precision")
        coords, rest = _back_substitute(self.ech, self.ech_pivots, vec)
        if coords is None or not _col_is_zero(rest, neff):
            return None
        return coords

    def contains_vector(self, vector, vscale=0):
        return self.solve(vector, vscale) is not None

    def contains(self, other):
        if other.ambient != self.ambient:
            raise ValueError("ambient ranks differ")
        return all(self.solve(list(c), other.scale) is not None
                   for c in other.cols)

    def equals(self, other):
        """Equality of spans at the working precision (mutual containment,
        so presentation-independent)."""
        if other.ambient != self.ambient:
            return False
        if self.rank != other.rank:
            return False
        return self.contains(other) and other.contains(self)

    def index_valuation(self):
        """Valuation of the index [standard : basis-span] when full rank
        (sum of pivot valuations), ignoring the scale."""
        return sum(e for (_, e) in self.pivots)

    def __repr__(self):
        return (f"Lattice(rank={self.rank}/{self.ambient}, "
                f"scale={self.scale}, loss={self.loss})")


def _unify_scales(l1: Lattice, l2: Lattice):
    s = max(l1.scale, l2.scale)
    p = l1.ctx.p

    def shifted(lat):
        d = s - lat.scale
        if d == 0:
            return [list(c) for c in lat.cols]
        m = p ** d
        return [[x * m for x in c] for c in lat.cols]

    return s, shifted(l1), shifted(l2)


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    if l1.ambient != l2.ambient:
        raise ValueError("ambient ranks differ")
    s, c1, c2 = _unify_scales(l1, l2)
    loss = max(l1.loss, l2.loss)
    return Lattice.from_columns(l1.ctx, l1.ambient, c1 + c2, scale=s,
                                loss=loss).folded()


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Intersection via the kernel of the difference map on the direct sum."""
    if l1.ambient != l2.ambient:
        raise ValueError("ambient ranks differ")
    ctx = l1.ctx
    loss = max(l1.loss, l2.loss)
    neff = ctx.N - loss
    s, c1, c2 = _unify_scales(l1, l2)
    if not c1 or not c2:
        return Lattice.zero(ctx, l1.ambient)
    stacked = c1 + [[ctx.zero - x for x in c] for c in c2]
    gens = kernel_span(ctx, stacked, c1, neff, l1.ambient)
    return Lattice.from_columns(ctx, l1.ambient, gens, scale=s,
                                loss=loss).folded()


def kernel_span(ctx, cols, basis, neff, nrows):
    """The saturated kernel {k : sum_j k_j cols_j = 0 mod p^neff} of the
    columns (each of length nrows), every kernel vector recombined on the
    basis as sum_j k_j basis_j, in kernel order.  The basis may be shorter
    than the columns: the columns past it only cut the kernel."""
    _, _, _, kern = _reduce_columns(ctx, cols, neff, track=True, nrows=nrows)
    m = len(basis)
    return mat_mul([k[:m] for k in kern], basis, ctx.zero)


def matrix_kernel(ctx, rows, neff, ncols=None):
    """Saturated kernel {v : A v = 0 mod p^neff} of an integral matrix,
    returned as a list of columns."""
    m = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    nr = len(rows)
    cols = [[rows[i][j] for i in range(nr)] for j in range(m)]
    _, _, _, kern = _reduce_columns(ctx, cols, neff, track=True, nrows=nr)
    return kern


def saturate(lattice: Lattice, ambient: Lattice) -> Lattice:
    """(lattice[1/p] intersect ambient): divides out all p-power content.

    Computed through two saturated-kernel passes on the coordinates of the
    lattice in the ambient basis, so the result is independent of the
    p-powers carried by individual generators.
    """
    ctx = lattice.ctx
    loss = max(lattice.loss, ambient.loss)
    neff = ctx.N - loss
    if lattice.rank == 0:
        return Lattice.zero(ctx, lattice.ambient)
    coords = []
    for col in lattice.cols:
        # saturation only sees the rational span, so coordinates of the
        # raw integral columns (scale ignored) avoid spurious divisions
        x = ambient.solve(list(col), ambient.scale)
        if x is None:
            # membership may only hold after clearing p-denominators
            x = _solve_rational(ambient, list(col), ambient.scale)
        if x is None:
            raise InclusionViolated("lattice is not inside ambient[1/p]")
        coords.append(x)
    m = ambient.rank
    if m == 0:
        return Lattice.zero(ctx, lattice.ambient)
    # the kernel of the coordinate rows, then the kernel of that kernel
    left = matrix_kernel(ctx, coords, neff, ncols=m)
    sat_coords = (matrix_kernel(ctx, left, neff, ncols=m) if left
                  else identity(m, ctx.zero, ctx.one))
    gens = mat_mul(sat_coords, ambient.ech, ctx.zero)
    out = Lattice.from_columns(ctx, lattice.ambient, gens,
                               scale=ambient.scale, loss=loss)
    return out.folded()


def _solve_rational(lattice: Lattice, vector, vscale):
    """Solve allowing p-denominators: returns integral coordinates of
    p^k * vector for the smallest k that makes it land in the lattice,
    scaled back (used only to certify membership after saturation)."""
    ctx = lattice.ctx
    for k in range(ctx.N - lattice.loss):
        scaled = [x * (ctx.p ** k) for x in (ctx.scalar(v) for v in vector)]
        x = lattice.solve(scaled, vscale)
        if x is not None:
            return x
    return None


def mod_p_dimension(sub: Lattice, sup: Lattice) -> int:
    """dim over F_q of sup / (sub + p sup); requires sub inside sup."""
    ctx = sub.ctx
    coords = []
    for col in sub.cols:
        x = sup.solve(list(col), sub.scale)
        if x is None:
            raise InclusionViolated("sub-lattice not contained in sup")
        coords.append(x)
    m = sup.rank
    if m == 0:
        return 0
    rows = [[coords[j][i].residue() for j in range(len(coords))]
            for i in range(m)]
    return m - modp.gf_rank(ctx, rows)


# ---------------------------------------------------------------------------
# semilinear maps


class SemilinearMap:
    """v |-> p^{-denominator} * matrix * sigma^twist(v).

    ``matrix`` is stored as a tuple of rows of WittScalar; the denominator
    may be negative (a net p-multiple).  ``loss`` records one-time
    precision spent building the matrix (e.g. a p-power divided out of an
    inverse); entries are then trusted modulo p^{N - loss} and products
    inherit the maximum loss of their factors.
    """

    __slots__ = ("ctx", "rows", "twist", "denominator", "loss")

    def __init__(self, ctx, rows, twist=0, denominator=0, loss=0):
        self.ctx = ctx
        self.rows = tuple(tuple(ctx.scalar(x) for x in r) for r in rows)
        self.twist = twist % ctx.n
        self.denominator = denominator
        self.loss = loss

    @staticmethod
    def identity(ctx, r):
        return SemilinearMap(ctx, identity(r, ctx.zero, ctx.one))

    @staticmethod
    def from_int_rows(ctx, rows, twist=0, denominator=0):
        return SemilinearMap(ctx, [[ctx.scalar(x) for x in r] for r in rows],
                             twist, denominator)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def apply_raw(self, col):
        """Integral part of the action on a column (denominator ignored)."""
        ctx = self.ctx
        if self.twist:
            col = [WittScalar(ctx, ctx.frobenius(x.c, self.twist))
                   for x in col]
        out = []
        for row in self.rows:
            acc = ctx.zero
            for a, x in zip(row, col):
                if not (a.is_zero() or x.is_zero()):
                    acc = acc + a * x
            out.append(acc)
        return out

    def __call__(self, lattice: Lattice) -> Lattice:
        """Image lattice; the denominator moves into the scale (kept as
        presentation: no entry is ever divided)."""
        cols = [self.apply_raw(list(c)) for c in lattice.cols]
        return Lattice.from_columns(self.ctx, self.nrows, cols,
                                    scale=lattice.scale + self.denominator,
                                    loss=max(lattice.loss, self.loss)
                                    ).folded()

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """self after other."""
        ctx = self.ctx
        e = self.twist
        orows = other.rows
        twisted = [[WittScalar(ctx, ctx.frobenius(x.c, e)) for x in r]
                   for r in orows] if e else orows
        rows = mat_mul(self.rows, twisted, ctx.zero)
        return SemilinearMap(ctx, rows, self.twist + other.twist,
                             self.denominator + other.denominator,
                             loss=max(self.loss, other.loss))

    def add(self, other: "SemilinearMap") -> "SemilinearMap":
        if self.twist != other.twist:
            raise ValueError("cannot add maps of different twists")
        ctx = self.ctx
        d = max(self.denominator, other.denominator)
        a = ctx.p ** (d - self.denominator)
        b = ctx.p ** (d - other.denominator)
        rows = [[x * a + y * b for x, y in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)]
        return SemilinearMap(ctx, rows, self.twist, d,
                             loss=max(self.loss, other.loss))

    def sub(self, other: "SemilinearMap") -> "SemilinearMap":
        return self.add(other.scale_int(-1))

    def scale_int(self, m: int) -> "SemilinearMap":
        rows = [[x * m for x in r] for r in self.rows]
        return SemilinearMap(self.ctx, rows, self.twist, self.denominator,
                             loss=self.loss)

    def scale_p(self, k: int) -> "SemilinearMap":
        """Multiply the map by p^k."""
        return SemilinearMap(self.ctx, self.rows, self.twist,
                             self.denominator - k, loss=self.loss)

    def inverse(self) -> "SemilinearMap":
        """Inverse map; requires bijectivity after inverting p.  The
        numerator is produced exactly (boosted internal precision), so no
        loss is added beyond the map's own."""
        inv_num, vdet = invert_matrix_exact(self.ctx, self.rows)
        ctx = self.ctx
        e = (-self.twist) % ctx.n
        rows = [[WittScalar(ctx, ctx.frobenius(x.c, e)) for x in r]
                for r in inv_num]
        return SemilinearMap(ctx, rows, e, vdet - self.denominator,
                             loss=self.loss)

    def reduce_denominator(self) -> "SemilinearMap":
        """Cancel common p-content between matrix and denominator."""
        if self.denominator <= 0:
            return self
        v = min(min((x.valuation() for x in r), default=self.ctx.N)
                for r in self.rows)
        k = min(v, self.denominator)
        if k <= 0:
            return self
        rows = [[x.divide_p(k) for x in r] for r in self.rows]
        return SemilinearMap(self.ctx, rows, self.twist,
                             self.denominator - k, loss=self.loss)

    def __repr__(self):
        return (f"SemilinearMap({self.nrows}x{self.ncols}, "
                f"twist={self.twist}, denom={self.denominator})")


def invert_matrix(ctx, rows):
    """(numerator, vdet) with inverse = p^{-vdet} * numerator.

    Solves A X = p^{vdet} I through the tracked echelon; raises SingularMap
    when the determinant vanishes at the working precision.
    """
    r = len(rows)
    neff = ctx.N
    cols = [[rows[i][j] for i in range(r)] for j in range(r)]
    ech, pivots, trans, _ = _reduce_columns(ctx, cols, neff, track=True,
                                            nrows=r)
    if len(pivots) < r:
        raise SingularMap("matrix is singular at the working precision")
    vdet = sum(e for (_, e) in pivots)
    # back-substitute p^{vdet} e_k through the triangular echelon; row k
    # of coords * trans is then column k of the numerator
    pv = ctx.scalar(ctx.p ** vdet)
    coords = []
    for k in range(r):
        vec = [ctx.zero] * r
        vec[k] = pv
        x, _ = _back_substitute(ech, pivots, vec)
        if x is None:
            raise PrecisionExhausted(
                "inverse not resolvable at working precision")
        coords.append(x)
    out_cols = mat_mul(coords, trans, ctx.zero)
    return [list(row) for row in zip(*out_cols)], vdet


def smith_valuations(ctx, rows, neff=None):
    """Valuations of the elementary divisors of a matrix over the local
    ring: the sorted pivot valuations of its column echelon, padded with
    neff for the divisors that vanish at the effective precision.

    With global-minimum pivoting, the block left after each pivot is the
    same Schur complement that full row and column clearing would leave,
    so the pivots are the diagonal of the Smith form."""
    neff = ctx.N if neff is None else neff
    ncols = len(rows[0]) if rows else 0
    cols = [[ctx.scalar(row[j]) for row in rows] for j in range(ncols)]
    _, pivots, _, _ = _reduce_columns(ctx, cols, neff, nrows=len(rows))
    pad = min(len(rows), ncols) - len(pivots)
    return sorted([e for (_, e) in pivots] + [neff] * pad)


def invert_matrix_exact(ctx, rows):
    """(numerator, vdet) like invert_matrix, but computed at a boosted
    internal precision on the integer representatives (which are taken as
    the definition of the matrix), so the published numerator is exact at
    the context precision and costs no loss."""
    inv, vdet = invert_matrix(ctx, rows)
    if vdet == 0:
        return inv, vdet
    big = ctx.with_precision(ctx.N + vdet + 2)
    binv, v2 = invert_matrix(big, transport(big, rows))
    if v2 != vdet:
        raise PrecisionExhausted("determinant valuation is not stable")
    return transport(ctx, binv), vdet


def restrict_map(f: SemilinearMap, lattice: Lattice) -> SemilinearMap:
    """Matrix of f on the basis of an f-stable lattice.

    Raises InclusionViolated when f does not map the lattice into itself.
    """
    ctx = f.ctx
    cols = []
    for c in lattice.ech:
        img = f.apply_raw(list(c))
        x = lattice.solve(img, lattice.scale + f.denominator)
        if x is None:
            raise InclusionViolated("lattice is not stable under the map")
        cols.append(x)
    rows = [[cols[j][i] for j in range(lattice.rank)]
            for i in range(lattice.rank)]
    return SemilinearMap(ctx, rows, f.twist, 0,
                         loss=max(f.loss, lattice.loss))
