"""Lattice and semilinear-map algebra over the truncated Witt ring.

A lattice is p^{-scale} times the column span of an integral basis matrix
inside an ambient free module of fixed rank; storing the scale separately
keeps every coefficient in Z/p^N.  The scale is never negative: a
construction at a negative scale multiplies its columns by p^{-scale},
which is exact, and stores scale 0.  Canonical (Hermite) bases make
equality decidable: pivots are unit-normalized p-powers, columns are
ordered by pivot row, and off-pivot entries in pivot rows are reduced
modulo the pivot.  Pivoting always selects a remaining entry of minimal
valuation (ties: lowest row, then lowest column), so eliminations divide
exactly and cost no precision.

Every elimination in the package goes through this module's primitives:

- echelon: ``_reduce_columns``, the one pivot loop (optionally tracking
  the column transform and the combinations that vanish);
- substitution: ``_back_substitute``, peeling a vector through an echelon
  (``Lattice.solve`` and ``invert_matrix``);
- ``kernel_span``: the saturated kernel of stacked columns, recombined on
  a basis (intersections, stable-sublattice refinement, trace duals);
  ``intersect`` runs it only when neither operand contains the other,
  since a contained operand is its own intersection (the Lie-algebra cuts
  of the default group GL(M) are all of that kind);
- Smith: ``smith_valuations``, the sorted pivot valuations of the echelon;
- residue field: ``residue_echelon``, ``residue_reduce``,
  ``residue_kernel``, ``residue_intersection`` and
  ``residue_spaces_equal`` are the same pivot loop, substitution and
  kernel cut at effective precision 1, where the first unit entry is the
  pivot and ``_cross_reduce`` clears every pivot row, so the echelon is
  the unique reduced one over F_q.  Their vectors are raw entries reduced
  into [0, p) (``mod_p_dimension`` counts the pivots).

Every entry here is a raw coefficient of the ring ``matrix.ring(ctx)``:
an int in [0, p^N) when n = 1, the coefficient tuple when n > 1.
``Lattice.cols``, ``Lattice.ech``, ``SemilinearMap.rows``, solve
coordinates, kernels and inverses all hold that one format, and the code
is written against the ring's column ops ``axpy``, ``scale``,
``pivot``/``val``, balanced ``divide_p``, unit ``inverse``, ``vanishes``,
``mul_mat``/``vec_mat`` and the zero test ``x == R.zero``.  Constructors
and the matrix entry points (``Lattice.from_columns``,
``Lattice.contains_vector``, ``SemilinearMap``, ``invert_matrix``,
``matrix_kernel``, ``smith_valuations``) also accept ints and
coefficient lists, through one ``raw_col`` pass.  ``Lattice.solve`` takes
raw entries of the lattice's own context only.

Semilinear maps are v |-> p^{-denominator} * A * sigma^twist(v).  Rows
known only modulo p^N fix the numerator of the inverse of A modulo
p^{N - v(det A)} (``invert_matrix``); ``invert_matrix_exact`` serves the
integers that define an input, which fix the inverse at every precision.

Precision moves are one primitive: ``boosted`` runs a computation at the
context precision raised by each extra of a schedule that its caller
writes down, and returns the first success.
"""

from __future__ import annotations

from .errors import InclusionViolated, PrecisionExhausted, SingularMap
from .matrix import ring


def _reduce_columns(ctx, cols, neff, track=False, nrows=None):
    """Column echelon form over the DVR at effective precision neff, on
    raw columns (see ``matrix``).

    Returns (ech_cols, pivots, transform, kernel_transform) where
    ``ech_cols``/``pivots`` are in processing order (column t has zeros at
    the pivot rows of columns s < t), ``transform`` maps original columns
    to the echelon ones, and ``kernel_transform`` holds the combinations
    that became effectively zero.  Transforms are None unless ``track``.
    """
    if neff <= 0:
        raise PrecisionExhausted("no effective precision left for reduction")
    R = ring(ctx)
    zero = R.zero
    m = len(cols)
    work = [list(c) for c in cols]
    r = nrows if nrows is not None else (len(work[0]) if work else 0)
    trans = R.identity(m) if track else None
    # trans[j] tracks the combination of original columns giving work[j]
    free = list(range(r))    # rows without a pivot, ascending
    # keys[j] = (v, row, j) for the pivot candidate of column j; a step
    # that leaves column j alone leaves its candidate in place
    keys = {}
    for j in range(m):
        hit = R.pivot(work[j], free, neff)
        if hit is not None:
            keys[j] = hit + (j,)
    remaining = list(range(m))
    order = []           # indices into work, processing order
    pivots = []          # (row, val) aligned with order
    while keys:
        e, prow, pj = min(keys.values())
        del keys[pj]
        remaining.remove(pj)
        free.remove(prow)
        # normalize so the pivot entry is exactly p^e
        uinv = R.inverse(R.divide_p(work[pj][prow], e))
        pcol = work[pj] = R.scale(work[pj], uinv)
        if track:
            trans[pj] = R.scale(trans[pj], uinv)
        for j in remaining:
            col = work[j]
            entry = col[prow]
            if entry == zero:
                continue
            q = R.divide_p(entry, e)
            col = R.axpy(col, q, pcol)
            col[prow] = zero
            work[j] = col
            if track:
                trans[j] = R.axpy(trans[j], q, trans[pj])
            hit = R.pivot(col, free, neff)
            if hit is None:
                keys.pop(j, None)
            else:
                keys[j] = hit + (j,)
        order.append(pj)
        pivots.append((prow, e))
    ech = [work[j] for j in order]
    tr = [trans[j] for j in order] if track else None
    kern = None
    if track:
        kern = [trans[j] for j in remaining if R.vanishes(work[j], neff)]
    else:
        for j in remaining:
            if not R.vanishes(work[j], neff):  # pragma: no cover
                raise AssertionError("unpivoted nonzero column")
    return ech, pivots, tr, kern


def _back_substitute(ctx, ech, pivots, vec):
    """(coords, residual) with vec = sum_t coords[t] * ech[t] + residual,
    peeled through the echelon in processing order, all raw; coords is
    None when a pivot does not divide its entry of the remaining vector."""
    R = ring(ctx)
    zero = R.zero
    coords = []
    for col, (prow, e) in zip(ech, pivots):
        entry = vec[prow]
        if entry == zero:
            coords.append(zero)
            continue
        if R.val(entry) < e:
            return None, vec
        q = R.divide_p(entry, e)
        coords.append(q)
        vec = R.axpy(vec, q, col)
    return coords, vec


def _cross_reduce(ctx, ech, pivots):
    """Reduce off-pivot entries in pivot rows modulo the pivots (canonical
    second phase) on raw columns; preserves the processing-order
    triangular structure."""
    R = ring(ctx)
    zero = R.zero
    cols = [list(c) for c in ech]
    for s, (prow, e) in enumerate(pivots):
        pe = ctx.p ** e
        for t, col in enumerate(cols):
            entry = col[prow]
            if t == s or entry == zero:
                continue
            rem = R.rem(entry, pe)
            q = R.divide_p(R.sub(entry, rem), e)
            if q == zero:
                continue
            col = R.axpy(col, q, cols[s])
            col[prow] = rem
            cols[t] = col
    return cols


class Lattice:
    """p^{-scale} times the span of canonical basis columns, scale >= 0.

    ``cols``/``pivots`` are the canonical presentation (sorted by pivot
    row); ``ech``/``ech_pivots`` keep the processing-order echelon used for
    membership solves.  Both hold raw columns.
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
        are dropped at the working precision).  A negative scale goes into
        the columns as a factor p^{-scale}, which is exact: a lattice never
        carries one.

        Refuses once half the precision has been spent: results would no
        longer be trustworthy, and the caller should rebuild the context
        with a larger exponent.
        """
        if 2 * loss >= ctx.N:
            raise PrecisionExhausted(
                f"accumulated loss {loss} has consumed half the working "
                f"precision {ctx.N}; raise the precision exponent")
        neff = ctx.N - loss
        R = ring(ctx)
        cols = R.raw_mat(columns)
        if scale < 0:
            m = R.of_int(ctx.p ** -scale)
            cols = [R.scale(col, m) for col in cols]
            scale = 0
        for col in cols:
            if len(col) != ambient:
                raise ValueError("column length does not match ambient rank")
        ech, pivots, _, _ = _reduce_columns(ctx, cols, neff, nrows=ambient)
        canon = _cross_reduce(ctx, ech, pivots)
        order = sorted(range(len(canon)), key=lambda t: pivots[t][0])
        ccols = tuple(tuple(canon[t]) for t in order)
        cpivs = tuple(pivots[t] for t in order)
        return Lattice(ctx, ambient, ccols, cpivs, scale, loss,
                       tuple(tuple(c) for c in ech), tuple(pivots))

    @staticmethod
    def standard(ctx, rank):
        """The identity lattice, already canonical: no elimination."""
        cols = tuple(map(tuple, ring(ctx).identity(rank)))
        pivots = tuple((i, 0) for i in range(rank))
        return Lattice(ctx, rank, cols, pivots, 0, 0, cols, pivots)

    @staticmethod
    def zero(ctx, ambient):
        return Lattice(ctx, ambient, (), (), 0, 0, (), ())

    # -- basic queries ---------------------------------------------------------

    @property
    def rank(self):
        return len(self.cols)

    def with_loss(self, loss):
        if loss == self.loss:
            return self
        return Lattice(self.ctx, self.ambient, self.cols, self.pivots,
                       self.scale, loss, self.ech, self.ech_pivots)

    def _scaled_cols(self, k):
        """The basis columns times p^k."""
        R = ring(self.ctx)
        m = R.of_int(self.ctx.p ** k)
        return [R.scale(col, m) for col in self.cols]

    def normalized(self):
        """Canonical (scale, basis) presentation: either the scale is zero
        or the basis has no p-content to cancel.

        Cancelling content divides basis entries, whose quotients are only
        defined modulo p^{N - content}; use only where downstream
        consumers read low digits (residues, ranks) or tolerate the
        presentation ambiguity."""
        if not self.cols:
            if self.scale == 0 and self.loss == 0:
                return self
            return Lattice.zero(self.ctx, self.ambient).with_loss(self.loss)
        R = ring(self.ctx)
        content = min(R.val(x) for col in self.cols for x in col)
        take = min(content, self.scale)
        if take <= 0:
            return self
        cols = [[R.divide_p(x, take) for x in col] for col in self.cols]
        return Lattice.from_columns(self.ctx, self.ambient, cols,
                                    scale=self.scale - take, loss=self.loss)

    def solve(self, vector, vscale=0, vloss=0):
        """Raw coordinates of p^{-vscale} * vector in this lattice, or
        None; the vector holds raw entries of this lattice's context and
        is trusted modulo p^{N - vloss}.

        The returned coordinate vector x satisfies basis * x = vector up to
        scales; non-integral coordinates mean non-membership.  The
        residual is tested modulo p^{N - max(loss, vloss)}, the digits
        that both the lattice and the vector know.  When the scale gap
        forces a division of the vector by p^gap, the quotient knows gap
        digits fewer, so the residual test runs that much lower (the
        membership decision itself needs no more).
        """
        ctx = self.ctx
        R = ring(ctx)
        neff = ctx.N - max(self.loss, vloss)
        shift = self.scale - vscale
        if shift > 0:
            vector = R.scale(vector, R.of_int(ctx.p ** shift))
        elif shift < 0:
            try:
                vector = [R.divide_p(x, -shift) for x in vector]
            except PrecisionExhausted:
                return None
            neff -= -shift
            if neff <= 0:
                raise PrecisionExhausted(
                    "scale gap exhausted the working precision")
        coords, rest = _back_substitute(ctx, self.ech, self.ech_pivots, vector)
        if coords is None or not R.vanishes(rest, neff):
            return None
        return coords

    def coordinates(self, vectors, vscale=0, vloss=0):
        """The ``solve`` coordinates of p^{-vscale} * v for each raw vector
        v, or None at the first vector outside the lattice (the vectors
        after it are not solved)."""
        out = []
        for v in vectors:
            x = self.solve(v, vscale, vloss)
            if x is None:
                return None
            out.append(x)
        return out

    def contains_vector(self, vector, vscale=0):
        """Membership of p^{-vscale} * vector, whose entries may also be
        ints or coefficient lists (one ``raw_col`` pass)."""
        return self.solve(ring(self.ctx).raw_col(vector),
                          vscale) is not None

    def contains_modulo(self, vector, k):
        """Membership of the raw vector in this lattice plus p^k times the
        standard lattice, without a new echelon: the stored pivots come in
        non-decreasing valuation order, and once one reaches k every
        column left vanishes mod p^k, so the pivots below k are the
        echelon at effective precision k."""
        R = ring(self.ctx)
        if self.scale:
            vector = R.scale(vector, R.of_int(self.ctx.p ** self.scale))
            k += self.scale
        low = sum(1 for (_, e) in self.ech_pivots if e < k)
        coords, rest = _back_substitute(self.ctx, self.ech[:low],
                                        self.ech_pivots[:low], vector)
        return coords is not None and R.vanishes(rest, k)

    def contains(self, other):
        """Containment, tested at the digits both lattices know."""
        if other.ambient != self.ambient:
            raise ValueError("ambient ranks differ")
        return self.coordinates(other.cols, other.scale,
                                other.loss) is not None

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
    return s, l1._scaled_cols(s - l1.scale), l2._scaled_cols(s - l2.scale)


def lattice_sum(*lattices: Lattice) -> Lattice:
    """The sum of one or more lattices of one ambient, presented at their
    largest scale and loss."""
    first = lattices[0]
    if any(L.ambient != first.ambient for L in lattices):
        raise ValueError("ambient ranks differ")
    s = max(L.scale for L in lattices)
    cols = [c for L in lattices for c in L._scaled_cols(s - L.scale)]
    return Lattice.from_columns(first.ctx, first.ambient, cols, scale=s,
                                loss=max(L.loss for L in lattices))


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """The intersection, presented at the larger scale and loss (an
    operand of rank 0 gives ``Lattice.zero``).  An operand that the other
    contains (``contains``, a certified solve of each column that stops
    at the first failure) is the answer, rebuilt from its own columns;
    otherwise the kernel of the difference map on the direct sum."""
    if l1.ambient != l2.ambient:
        raise ValueError("ambient ranks differ")
    ctx = l1.ctx
    loss = max(l1.loss, l2.loss)
    s, c1, c2 = _unify_scales(l1, l2)
    if not c1 or not c2:
        return Lattice.zero(ctx, l1.ambient)
    if l2.contains(l1):
        gens = c1
    elif l1.contains(l2):
        gens = c2
    else:
        neg = ring(ctx).neg
        stacked = c1 + [list(map(neg, c)) for c in c2]
        gens = kernel_span(ctx, stacked, c1, ctx.N - loss, l1.ambient)
    return Lattice.from_columns(ctx, l1.ambient, gens, scale=s, loss=loss)


def kernel_span(ctx, cols, basis, neff, nrows):
    """The saturated kernel {k : sum_j k_j cols_j = 0 mod p^neff} of the
    raw columns (each of length nrows), every kernel vector recombined on
    the raw basis as sum_j k_j basis_j, in kernel order.  The basis may be
    shorter than the columns: the columns past it only cut the kernel."""
    _, _, _, kern = _reduce_columns(ctx, cols, neff, track=True, nrows=nrows)
    m = len(basis)
    return ring(ctx).mul_mat([k[:m] for k in kern], basis)


def matrix_kernel(ctx, rows, neff, ncols=None):
    """Saturated kernel {v : A v = 0 mod p^neff} of an integral matrix,
    returned as a list of raw columns."""
    R = ring(ctx)
    m = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    nr = len(rows)
    cols = [R.raw_col([rows[i][j] for i in range(nr)]) for j in range(m)]
    _, _, _, kern = _reduce_columns(ctx, cols, neff, track=True, nrows=nr)
    return kern


def saturate(lattice: Lattice, ambient: Lattice) -> Lattice:
    """(lattice[1/p] intersect ambient): divides out all p-power content.

    The ambient must be saturated (``Lattice.standard``, ``crystal.M``, a
    block lattice), so that every raw integral column of a lattice inside
    ambient[1/p] solves integrally in it; a column that does not raises
    InclusionViolated.  Computed through two saturated-kernel passes on
    the coordinates of the lattice in the ambient basis, so the result is
    independent of the p-powers carried by individual generators.
    """
    ctx = lattice.ctx
    loss = max(lattice.loss, ambient.loss)
    neff = ctx.N - loss
    if lattice.rank == 0:
        return Lattice.zero(ctx, lattice.ambient)
    # saturation only sees the rational span, so coordinates of the raw
    # integral columns (scale ignored) avoid spurious divisions
    coords = ambient.coordinates(lattice.cols, ambient.scale)
    if coords is None:
        raise InclusionViolated("lattice is not inside ambient[1/p]")
    m = ambient.rank
    if m == 0:
        return Lattice.zero(ctx, lattice.ambient)
    # the kernel of the coordinate rows, then the kernel of that kernel
    left = matrix_kernel(ctx, coords, neff, ncols=m)
    R = ring(ctx)
    sat_coords = (matrix_kernel(ctx, left, neff, ncols=m) if left
                  else R.identity(m))
    gens = R.mul_mat(sat_coords, ambient.ech)
    return Lattice.from_columns(ctx, lattice.ambient, gens,
                                scale=ambient.scale, loss=loss)


def mod_p_dimension(sub: Lattice, sup: Lattice) -> int:
    """dim over F_q of sup / (sub + p sup); requires sub inside sup."""
    coords = sup.coordinates(sub.cols, sub.scale)
    if coords is None:
        raise InclusionViolated("sub-lattice not contained in sup")
    m = sup.rank
    _, pivots, _, _ = _reduce_columns(sub.ctx, coords, 1, nrows=m)
    return m - len(pivots)


# ---------------------------------------------------------------------------
# linear algebra over the residue field: raw vectors, read modulo p


def residue_echelon(ctx, vectors):
    """(rows, positions): the reduced echelon basis of the span of raw
    vectors over F_q, sorted by pivot position, with entries in [0, p).

    It is unique for the span, so equal spans give equal bases."""
    if not vectors:
        return [], []
    ech, pivots, _, _ = _reduce_columns(ctx, vectors, 1,
                                        nrows=len(vectors[0]))
    canon = _cross_reduce(ctx, ech, pivots)
    rem, p = ring(ctx).rem, ctx.p
    order = sorted(range(len(canon)), key=lambda t: pivots[t][0])
    return ([[rem(x, p) for x in canon[t]] for t in order],
            [pivots[t][0] for t in order])


def residue_reduce(ctx, ech, positions, vec):
    """The residual of a raw vector modulo the span of a reduced echelon
    basis: zero at the pivot positions, entries in [0, p)."""
    _, rest = _back_substitute(ctx, ech, [(c, 0) for c in positions], vec)
    rem, p = ring(ctx).rem, ctx.p
    return [rem(x, p) for x in rest]


def residue_kernel(ctx, rows, ncols):
    """Basis of {v in F_q^ncols : A v = 0} for the raw rows of A: one
    vector per free column, 1 there and 0 at the other free columns."""
    R = ring(ctx)
    ech, positions = residue_echelon(ctx, rows)
    taken = set(positions)
    basis = []
    for f in range(ncols):
        if f in taken:
            continue
        v = [R.zero] * ncols
        v[f] = R.one
        for row, c in zip(ech, positions):
            v[c] = R.rem(R.neg(row[f]), ctx.p)
        basis.append(v)
    return basis


def residue_intersection(ctx, basis1, basis2):
    """Reduced echelon basis of the intersection of two spans over F_q:
    the combinations of basis1 that some combination of basis2 cancels
    (the sign of basis2 does not change that span)."""
    if not basis1 or not basis2:
        return []
    gens = kernel_span(ctx, list(basis1) + list(basis2), basis1, 1,
                       len(basis1[0]))
    return residue_echelon(ctx, gens)[0]


def residue_spaces_equal(ctx, basis1, basis2):
    """Equality of spans over F_q (reduced echelon bases are unique)."""
    return residue_echelon(ctx, basis1) == residue_echelon(ctx, basis2)


# ---------------------------------------------------------------------------
# semilinear maps


class SemilinearMap:
    """v |-> p^{-denominator} * matrix * sigma^twist(v).

    ``rows`` holds the matrix as a tuple of raw rows (given as ints,
    scalars or raw entries); the denominator may be negative (a net
    p-multiple).  ``loss`` records one-time precision spent building the
    matrix (e.g. a p-power divided out of an inverse); entries are then
    trusted modulo p^{N - loss} and products inherit the maximum loss of
    their factors.

    ``_tcols`` caches the columns of the matrix (its transposed rows),
    built on the first ``apply_raw``: an image is then one ``vec_mat``
    row combination, which skips the zero entries of the column.
    """

    __slots__ = ("ctx", "rows", "twist", "denominator", "loss", "_tcols")

    def __init__(self, ctx, rows, twist=0, denominator=0, loss=0):
        self.ctx = ctx
        self.rows = tuple(map(tuple, ring(ctx).raw_mat(rows)))
        self.twist = twist % ctx.n
        self.denominator = denominator
        self.loss = loss
        self._tcols = None

    @staticmethod
    def identity(ctx, r):
        return SemilinearMap(ctx, ring(ctx).identity(r))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def apply_raw(self, col):
        """Integral part of the action on a raw column (denominator
        ignored)."""
        R = ring(self.ctx)
        if not col:
            # a map from rank 0: no columns to combine
            return [R.zero] * self.nrows
        if self.twist:
            # sigma fixes zero, so only the nonzero entries are twisted
            frob, twist, zero = R.frob, self.twist, R.zero
            col = [v if v == zero else frob(v, twist) for v in col]
        if self._tcols is None:
            self._tcols = tuple(zip(*self.rows))
        return R.vec_mat(col, self._tcols)

    def __call__(self, lattice: Lattice) -> Lattice:
        """Image lattice; the denominator moves into the scale (kept as
        presentation: no entry is ever divided)."""
        cols = [self.apply_raw(c) for c in lattice.cols]
        return Lattice.from_columns(self.ctx, self.nrows, cols,
                                    scale=lattice.scale + self.denominator,
                                    loss=max(lattice.loss, self.loss))

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """self after other."""
        ctx = self.ctx
        R = ring(ctx)
        rows = R.mul_mat(self.rows, R.frob_mat(other.rows, self.twist))
        return SemilinearMap(ctx, rows, self.twist + other.twist,
                             self.denominator + other.denominator,
                             loss=max(self.loss, other.loss))

    def add(self, other: "SemilinearMap") -> "SemilinearMap":
        if self.twist != other.twist:
            raise ValueError("cannot add maps of different twists")
        ctx = self.ctx
        R = ring(ctx)
        d = max(self.denominator, other.denominator)

        def lifted(m):
            # the rows over the common denominator p^d
            if m.denominator == d:
                return m.rows
            u = R.of_int(ctx.p ** (d - m.denominator))
            return [R.scale(row, u) for row in m.rows]

        rows = R.add_mat(lifted(self), lifted(other))
        return SemilinearMap(ctx, rows, self.twist, d,
                             loss=max(self.loss, other.loss))

    def sub(self, other: "SemilinearMap") -> "SemilinearMap":
        return self.add(other.scale_int(-1))

    def scale_int(self, m: int) -> "SemilinearMap":
        R = ring(self.ctx)
        rows = [R.scale(r, R.of_int(m)) for r in self.rows]
        return SemilinearMap(self.ctx, rows, self.twist, self.denominator,
                             loss=self.loss)

    def scale_p(self, k: int) -> "SemilinearMap":
        """Multiply the map by p^k."""
        return SemilinearMap(self.ctx, self.rows, self.twist,
                             self.denominator - k, loss=self.loss)

    def reduce_denominator(self) -> "SemilinearMap":
        """Cancel common p-content between matrix and denominator."""
        if self.denominator <= 0:
            return self
        R = ring(self.ctx)
        v = min(min((R.val(x) for x in r), default=self.ctx.N)
                for r in self.rows)
        k = min(v, self.denominator)
        if k <= 0:
            return self
        rows = [[R.divide_p(x, k) for x in r] for r in self.rows]
        return SemilinearMap(self.ctx, rows, self.twist,
                             self.denominator - k, loss=self.loss)

    def __repr__(self):
        return (f"SemilinearMap({self.nrows}x{self.ncols}, "
                f"twist={self.twist}, denom={self.denominator})")


def invert_matrix(ctx, rows):
    """(numerator, vdet) with inverse = p^{-vdet} * numerator, the
    numerator raw.

    Solves A X = p^{vdet} I through the tracked echelon; raises SingularMap
    when the determinant vanishes at the working precision.
    """
    R = ring(ctx)
    r = len(rows)
    neff = ctx.N
    cols = [R.raw_col([rows[i][j] for i in range(r)]) for j in range(r)]
    ech, pivots, trans, _ = _reduce_columns(ctx, cols, neff, track=True,
                                            nrows=r)
    if len(pivots) < r:
        raise SingularMap("matrix is singular at the working precision")
    vdet = sum(e for (_, e) in pivots)
    # back-substitute p^{vdet} e_k through the triangular echelon; row k
    # of coords * trans is then column k of the numerator
    pv = R.of_int(ctx.p ** vdet)
    coords = []
    for k in range(r):
        vec = [R.zero] * r
        vec[k] = pv
        x, _ = _back_substitute(ctx, ech, pivots, vec)
        if x is None:
            raise PrecisionExhausted(
                "inverse not resolvable at working precision")
        coords.append(x)
    out_cols = R.mul_mat(coords, trans)
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
    R = ring(ctx)
    cols = [R.raw_col([row[j] for row in rows]) for j in range(ncols)]
    _, pivots, _, _ = _reduce_columns(ctx, cols, neff, nrows=len(rows))
    pad = min(len(rows), ncols) - len(pivots)
    return sorted([e for (_, e) in pivots] + [neff] * pad)


def boosted(ctx, extras, run):
    """The first value of run(c), c being ctx raised by each extra in turn
    (extra 0 is ctx itself).  A PrecisionExhausted or SingularMap moves on
    to the next extra; the last one's message is raised as
    PrecisionExhausted.  Only exact data may cross into c: the integers
    that define the input (a crystal's ``source``), not their residues
    modulo p^N, which define another matrix at c."""
    for extra in extras:
        try:
            return run(ctx.with_precision(ctx.N + extra))
        except (PrecisionExhausted, SingularMap) as err:
            last = err
    raise PrecisionExhausted(str(last))


def invert_matrix_exact(ctx, rows):
    """(numerator, vdet) like invert_matrix, but computed at a boosted
    internal precision on the given rows, so the published numerator is
    exact at the context precision and costs no loss.  The rows must
    define the matrix at every precision: the integers of an input (a
    crystal's ``source``), ints or coefficient lists lifted as they are.
    Raw entries would be lifted as their representatives in [0, p^N),
    another matrix; residues alone fix the numerator only modulo
    p^{N - vdet}."""
    R = ring(ctx)
    inv, vdet = invert_matrix(ctx, rows)
    if vdet == 0:
        return inv, vdet
    binv, v2 = boosted(ctx, (vdet + 2,), lambda c: invert_matrix(c, rows))
    if v2 != vdet:
        raise PrecisionExhausted("determinant valuation is not stable")
    return R.raw_mat(binv), vdet


def restrict_map(f: SemilinearMap, lattice: Lattice) -> SemilinearMap:
    """Matrix of f on the basis of an f-stable lattice.

    Raises InclusionViolated when f does not map the lattice into itself.
    """
    cols = lattice.coordinates((f.apply_raw(c) for c in lattice.ech),
                               lattice.scale + f.denominator)
    if cols is None:
        raise InclusionViolated("lattice is not stable under the map")
    return SemilinearMap(f.ctx, list(zip(*cols)), f.twist, 0,
                         loss=max(f.loss, lattice.loss))
