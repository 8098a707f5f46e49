"""Deformations over a truncated power-series base.

Given a square-zero lattice E (stable under p times the conjugation
Frobenius) and a tuple B of elements of E with independent tangent
classes, the universal unipotent twist 1 + sum v_i x_i deforms the
Frobenius over W(k)[[x_1..x_n]].  The connection making the twisted
Frobenius horizontal has a one-form with coefficients in E; its
coordinate series solve a fixed-point recursion whose terms carry
strictly increasing powers of the variables, so the truncated solution is
exact.  The module also certifies horizontality, reads off the
Kodaira-Spencer tangent image, restricts the connection to E + W(k)t,
trivializes the deformation at residue-field points, and evaluates the
divided-power correction factor at arbitrary Witt coordinates.

Every analysis here takes E square-zero (axiom (ii)) as its hypothesis and
refuses any other E with one ``HypothesisViolated`` message, decided at the
precision of E (``require_square_zero``).  The point trivialization is the
limit of the backward-orbit product prod_k (1 + n_k) with every n_k in E,
so every cross term vanishes: the product is 1 + sum_k n_k and its inverse
1 - sum_k n_k.  The backward conjugation T on the basis of E is
restricted from r x r data, sigma^{-1}(A_adj x A) for each basis element
x, with no r^2 x r^2 map.  The workspace then also holds doubling tables
of T: P_j = T^(2^j) and
Q_j = T + ... + T^(2^j), the latter split by the power of sigma each
term twists by, built with ``SemilinearMap.compose`` and ``add``.  T is
integral, so the orbit terms that survive mod p^N form a prefix; a
binary descent over the tables finds its length ``steps`` and its sum in
about 2 log2(cap) matrix-vector products, and since the tables are exact
at the boosted precision the sum is the step-by-step one entry for
entry.  The conjugation certificate reads only its nonzero entries.
The workspace also memoizes the Teichmuller lifts of the residue
coordinates it has seen; the memo lives exactly as long as the workspace.

Matrices, lattice columns, deformation vectors, series coefficients,
evaluation points and the correction factor all hold raw entries of
``matrix.ring``; the Teichmuller lift of a residue point is the raw
tuple of ``WittContext.teichmuller``, which crosses ``raw_col`` once per
coordinate.

Series arithmetic pays only for nonzero terms and nonzero rows.  No
r x r matrix of series is built: the twisted Frobenius applies
u = 1 + sum_j x_j v_j as avec + sum_j x_j (v_j avec), one shift by x_j
per deformation vector, and row k combines only the v_j whose row k has a
nonzero entry (``DeformationBasis.rows``).  nabla applies each basis
element of E through its nonzero entries (``ConnectionForm.entries``) as
one row combination (``TruncatedSeries.plus_combination``) per row of the
products of the entries with terms and the form's coefficients, each
product formed once, when a row first uses it.  Each result keeps the
window that the product with the full matrix gave it.
"""

from __future__ import annotations

from math import isqrt

from .core import TangentSpace, nu_image, _nonzero_product
from .errors import (HypothesisViolated, InclusionViolated, NonConvergence,
                     NonTermination, ValidationFailed)
from .isocrystal import FIsocrystal, end_frobenius, mat_to_vec, vec_to_mat
from .lattices import (Lattice, SemilinearMap, boosted, residue_echelon,
                       restrict_map)
from .matrix import ring
from .series import TruncatedSeries


class DeformationBasis:
    """Vectors v_1..v_n inside a lattice E whose tangent classes are
    linearly independent (so they span nu of their own span); stored
    raw.  ``rows[k]`` lists (j, row k of v_j) for the v_j whose row k
    holds a nonzero entry, v_j read as an r x r matrix: the rows of
    u = 1 + sum_j x_j v_j that ``apply_twisted_frobenius`` combines."""

    __slots__ = ("vectors", "E", "n", "rows")

    def __init__(self, vectors, E: Lattice):
        R = ring(E.ctx)
        self.vectors = R.raw_mat(vectors)
        self.E = E
        self.n = len(self.vectors)
        r = isqrt(E.ambient)
        self.rows = [[(j, row) for j, row in enumerate(
            v[k * r:(k + 1) * r] for v in self.vectors)
            if not all(map(R.is_zero, row))] for k in range(r)]


def select_deformation_basis(E: Lattice, tangent: TangentSpace
                             ) -> DeformationBasis:
    """Greedy subset of the basis of E whose tangent classes form a basis
    of nu(E); deterministic in the stored basis order."""
    ctx = E.ctx
    target, _ = nu_image(E, tangent)
    chosen = []
    classes = []
    r = tangent.rank
    for col in E.cols:
        trial = classes + [tangent.nu_matrix(vec_to_mat(col, r))]
        if len(residue_echelon(ctx, trial)[1]) > len(classes):
            chosen.append(list(col))
            classes = trial
        if len(chosen) == target:
            break
    if len(chosen) != target:
        raise ValueError("basis classes do not span the tangent image")
    return DeformationBasis(chosen, E)


class ConnectionForm:
    """The one-form of the horizontal connection: w[(l, i)] is the series
    coefficient of (basis element l of E) d x_i.  ``entries[k]`` lists
    (l, m, x) for every nonzero entry x at (k, m) of basis element l, read
    as an r x r matrix: the terms row k of ``_nabla`` combines."""

    __slots__ = ("crystal", "E", "basis", "B", "dmax", "w", "a", "b",
                 "entries")

    def __init__(self, crystal, E, basis, B, dmax, w, a, b):
        self.crystal = crystal
        self.E = E
        self.basis = basis      # flattened E-basis vectors (echelon order)
        self.B = B
        self.dmax = dmax
        self.w = w
        self.a = a              # coords of p phi(e_l) in the E basis
        self.b = b              # coords of v_i in the E basis
        r = crystal.rank
        is_zero = ring(crystal.ctx).is_zero
        self.entries = [[(l, m, v[k * r + m]) for l, v in enumerate(basis)
                         for m in range(r) if not is_zero(v[k * r + m])]
                        for k in range(r)]

    def basis_matrices(self):
        r = self.crystal.rank
        return [vec_to_mat(list(v), r) for v in self.basis]


def require_square_zero(crystal: FIsocrystal, E: Lattice):
    """Raise HypothesisViolated unless every product of two echelon basis
    elements of E vanishes modulo p^(N - loss(E)) (axiom (ii))."""
    witness = _nonzero_product(crystal.ctx, crystal.rank, E.ech, E.loss)
    if witness is not None:
        a, b = witness
        raise HypothesisViolated(f"E is not square-zero: basis elements {a} "
                                 f"and {b} have a non-zero product")


def solve_connection(crystal: FIsocrystal, E: Lattice, B: DeformationBasis,
                     dmax: int) -> ConnectionForm:
    """Solve the horizontality recursion for the connection one-form.

    Each application of the recursion operator multiplies by x_i^(p-1)
    after the Frobenius lift, so degrees march through p^k - 1 and the
    truncated series is the exact solution below the degree bound.
    """
    ctx = crystal.ctx
    if dmax < ctx.p - 1:
        raise ValueError("degree bound must be at least p - 1")
    R = ring(ctx)
    n = B.n
    basis = [list(c) for c in E.ech]
    require_square_zero(crystal, E)
    m = len(basis)
    # a[j][l]: coordinates of p phi(e_l); stability is part of the contract
    pphi = end_frobenius(crystal).scale_p(1)
    try:
        arestr = restrict_map(pphi, E)
    except InclusionViolated as exc:
        raise HypothesisViolated(
            f"E is not stable under p times the Frobenius: {exc}")
    a = [[arestr.rows[j][l] for l in range(m)] for j in range(m)]
    # b[j][i]: coordinates of v_i
    b = E.coordinates(B.vectors)
    if b is None:
        raise HypothesisViolated("a deformation vector does not lie in E")
    bmat = [[b[i][j] for i in range(n)] for j in range(m)]  # b[j][i]
    w = {}
    for i in range(n):
        # term_0 = -b_i; term_{k+1} = O_i(term_k)
        terms = [[TruncatedSeries.constant(R, n, dmax, R.neg(bmat[j][i]))
                  for j in range(m)]]
        acc = [terms[0][j] for j in range(m)]
        guard = 0
        while True:
            prev = terms[-1]
            if all(t.is_zero() for t in prev):
                break
            lifted = [s.frobenius_lift() for s in prev]
            nxt = [TruncatedSeries.zero(R, n, dmax).plus_combination(
                a[j], lifted).times_variable(i, ctx.p - 1) for j in range(m)]
            terms.append(nxt)
            acc = [acc[j] + nxt[j] for j in range(m)]
            guard += 1
            if guard > dmax + 2:
                raise NonConvergence("connection recursion did not "
                                     "terminate within the degree bound")
        for j in range(m):
            w[(j, i)] = acc[j]
    return ConnectionForm(crystal, E, basis, B, dmax, w, a, bmat)


def recursion_residual(conn: ConnectionForm):
    """Exact residual of the defining recursion b + w = O(w); zero through
    the verified window for a correct solution (independent check)."""
    R = ring(conn.crystal.ctx)
    n = conn.B.n
    m = len(conn.basis)
    dmax = conn.dmax
    out = {}
    for i in range(n):
        xfac = TruncatedSeries.variable(R, n, dmax, i, power=R.p - 1)
        for j in range(m):
            rhs = TruncatedSeries.zero(R, n, dmax)
            for l in range(m):
                if conn.a[j][l] != R.zero:
                    rhs = rhs + conn.w[(l, i)].frobenius_lift() \
                        * conn.a[j][l]
            rhs = rhs * xfac
            lhs = conn.w[(j, i)] + TruncatedSeries.constant(
                R, n, dmax, conn.b[j][i])
            out[(j, i)] = (lhs - rhs, min(lhs.valid, rhs.valid))
    return out


# ---------------------------------------------------------------------------
# the twisted Frobenius on series vectors


def _nabla(conn, vec, i):
    """nabla(d/dx_i) on a vector of series: the partial derivative plus
    omega_i = sum_l w[(l, i)] * (basis element l of E) applied to it.

    Entry k of omega_i(vec) is sum_l sum_m (E_l)[k][m] (vec_m w[(l, i)])
    over the nonzero entries (E_l)[k][m] of ``conn.entries``, so each
    product of an entry with terms and a nonzero w[(l, i)] is formed once,
    when a row first uses it, and every row is one combination of those
    products.  Each entry of E_l vec is trusted only through the window of
    every entry of vec, zero matrix entries included."""
    R = ring(conn.crystal.ctx)
    out = [s.partial(i) for s in vec]
    forms = {l: conn.w[(l, i)] for l in range(len(conn.basis))
             if not conn.w[(l, i)].is_zero()}
    if not forms:
        return out
    floor = TruncatedSeries(R, conn.B.n, conn.dmax, valid=min(
        [s.valid for s in vec] + [w_li.valid for w_li in forms.values()]))
    live = {m for m, s in enumerate(vec) if not s.is_zero()}
    prods = {}
    for k, entries in enumerate(conn.entries):
        row, series = [], []
        for l, m, x in entries:
            if l in forms and m in live:
                prod = prods.get((l, m))
                if prod is None:
                    prod = prods[(l, m)] = vec[m] * forms[l]
                row.append(x)
                series.append(prod)
        out[k] = out[k] + floor
        if row:
            out[k] = out[k].plus_combination(row, series)
    return out


def apply_twisted_frobenius(crystal, B: DeformationBasis, vec):
    """Phi_N(vec) = u * (A * Phi_S(vec)) for a vector of series, with
    u = 1 + sum_j x_j v_j over the deformation vectors v_j of B.

    With avec = A * Phi_S(vec), entry k is avec_k + sum_j (v_j x_j avec)_k:
    avec is shifted by x_j once per vector, and row k of v_j combines the
    shifted entries over its nonzero entries only, for the v_j of
    ``B.rows[k]``.  Every entry is trusted only through the window of
    every entry of avec, as in the product with the full series matrix
    u."""
    R = ring(crystal.ctx)
    lifted = [s.frobenius_lift() for s in vec]
    nvars, dmax = vec[0].nvars, vec[0].dmax
    empty = TruncatedSeries.zero(R, nvars, dmax)
    avec = [empty.plus_combination(row, lifted) for row in crystal.phi.rows]
    floor = TruncatedSeries(R, nvars, dmax, valid=min(s.valid for s in avec))
    shifted = [[s.times_variable(j) for s in avec] for j in range(B.n)]
    out = []
    for k, live in enumerate(B.rows):
        acc = floor + avec[k]
        for j, row in live:
            acc = acc.plus_combination(row, shifted[j])
        out.append(acc)
    return out


def verify_horizontality(crystal: FIsocrystal, conn: ConnectionForm,
                         split) -> dict:
    """Evaluate both sides of the horizontality identity on the p-cleared
    basis of (1/p) F^1 + M and report the residual.

    Verifying the p-multiplied identity certifies the original one modulo
    one power of p less; the degree window is the minimum validity of the
    two sides.
    """
    ctx = crystal.ctx
    R = ring(ctx)
    r = crystal.rank
    n = conn.B.n
    dmax = conn.dmax
    # the columns of each basis matrix, so that E_l c is one vec_mat
    ecols = [list(zip(*emat)) for emat in conn.basis_matrices()]
    basis_cols = split.F1.cols + split.F0.cols
    empty = TruncatedSeries.zero(R, n, dmax)
    max_residual_val = None
    window = dmax
    for cvec in basis_cols:
        const = [TruncatedSeries.constant(R, n, dmax, x) for x in cvec]
        phin_c = apply_twisted_frobenius(crystal, conn.B, const)
        ecs = [R.vec_mat(cvec, emat_cols) for emat_cols in ecols]
        for i in range(n):
            lhs = _nabla(conn, phin_c, i)
            # right side: Phi_N applied to omega_i(c), the sum of
            # w[(l, i)] E_l c, times p x_i^(p-1)
            forms = [(ec, conn.w[(l, i)]) for l, ec in enumerate(ecs)
                     if not conn.w[(l, i)].is_zero()]
            ws = [w_li for _, w_li in forms]
            rows = ([ec[k] for ec, _ in forms] for k in range(r))
            omega_c = [empty if all(map(R.is_zero, row))
                       else empty.plus_combination(row, ws) for row in rows]
            rhs = apply_twisted_frobenius(crystal, conn.B, omega_c)
            pfac = TruncatedSeries.variable(R, n, dmax, i,
                                            power=ctx.p - 1).scale_p(1)
            rhs = [s * pfac for s in rhs]
            for k in range(r):
                diff = lhs[k] - rhs[k]
                window = min(window, diff.valid)
                for e, c in diff.coeffs.items():
                    if sum(e) > diff.valid:
                        continue
                    v = R.val(c)
                    if max_residual_val is None or v < max_residual_val:
                        max_residual_val = v
    residual_val = ctx.N if max_residual_val is None else max_residual_val
    return {
        "residual_valuation": residual_val,
        # the p-cleared identity certifies the stated one mod p^(N-1)
        "certified_modulus": min(residual_val, ctx.N - 1),
        "degree_window": window,
        "vanishes": residual_val >= ctx.N - 1,
    }


def kodaira_spencer_image(conn: ConnectionForm, tangent: TangentSpace):
    """Tangent image of the degree-zero part of the connection: spanned by
    the classes of the deformation vectors; asserted to match them."""
    ctx = conn.crystal.ctx
    R = ring(ctx)
    r = conn.crystal.rank
    classes = []
    for i in range(conn.B.n):
        c0 = [conn.w[(l, i)].constant_term()
              for l in range(len(conn.basis))]
        # the degree-zero coefficient sum_l c0_l e_l is -v_i
        v = R.vec_mat(c0, conn.basis)
        classes.append(tangent.nu_matrix(vec_to_mat(list(map(R.neg, v)),
                                                    r)))
    ech, positions = residue_echelon(ctx, classes)
    want = [tangent.nu_matrix(vec_to_mat(v, r)) for v in conn.B.vectors]
    # reduced echelon bases are unique, so equal spans give equal bases
    if (ech, positions) != residue_echelon(ctx, want):
        raise ValidationFailed(
            "Kodaira-Spencer image differs from the span of the basis "
            "classes")
    return len(ech), ech


def induced_connection_tilde(conn: ConnectionForm, t: SemilinearMap) -> dict:
    """Restriction of the connection to E + W(k) t through the bracket
    action: the E-part is annihilated and the t-part lands in E."""
    ctx = conn.crystal.ctx
    R = ring(ctx)
    r = conn.crystal.rank
    emats = conn.basis_matrices()
    pk = R.of_int(ctx.p ** t.denominator)

    def bracket(x, y):
        return R.sub_mat(R.mul_mat(x, y), R.mul_mat(y, x))

    # certificates on brackets: [e_l, e_j] = 0 and [e_l, t] = e_l
    zero_mat = [[R.zero] * r for _ in range(r)]
    for l, el in enumerate(emats):
        for j, ej in enumerate(emats):
            if bracket(el, ej) != zero_mat:
                raise HypothesisViolated(
                    f"[e_{l}, e_{j}] is non-zero; E-part is not flat")
    for l, el in enumerate(emats):
        if bracket(el, t.rows) != [R.scale(row, pk) for row in el]:
            raise HypothesisViolated(
                f"[e_{l}, t] does not equal e_{l}")
    # the induced form on t is sum_l e_l w_{l,i} d x_i, valued in E
    tilde = {}
    for i in range(conn.B.n):
        tilde[i] = [(l, conn.w[(l, i)]) for l in range(len(emats))
                    if not conn.w[(l, i)].is_zero()]
    return {
        "e_part_flat": True,
        "t_form": tilde,
        "t_lands_in_E": True,
    }


# ---------------------------------------------------------------------------
# trivialization at points


def prepare_trivializer(crystal: FIsocrystal, E: Lattice,
                        B: DeformationBasis) -> dict:
    """One-time boosted-precision setup shared by all evaluation points,
    after refusing an E that is not square-zero: the lifted module data,
    the backward-conjugation matrix on E, the doubling tables of its orbit
    (``_orbit_tables``), and a memo of the Teichmuller lifts of the points
    it serves, which lives as long as the workspace.

    The backward-conjugation matrix ``Cmap`` restricts the numerator
    x -> sigma^{-1}(A_adj x A) (over p^v(det A)) to the echelon basis of
    E directly: two r x r products per basis element and one
    ``coordinates`` solve, with no r^2 x r^2 ``sandwich_map`` of the
    boosted crystal."""
    require_square_zero(crystal, E)
    ctx = crystal.ctx
    _, dval = crystal.inverse_numerator()
    delta = E.index_valuation()
    bX = boosted(ctx, (delta + 2 * dval + 8,), crystal.at_precision)
    big = bX.ctx
    # raw entries are integer representatives, valid at the boost too; a
    # basis known modulo p^(N - loss) knows no more digits at the boost
    loss = E.loss + big.N - ctx.N if E.loss else 0
    bE = Lattice.from_columns(big, E.ambient, E.cols, scale=E.scale,
                              loss=loss)
    ainv_big, vdet = bX.inverse_numerator()
    # x -> phi^{-1} x phi on the echelon basis of E
    R, r, back = ring(big), crystal.rank, (-1) % big.n
    images = (mat_to_vec(R.frob_mat(R.mul_mat(R.mul_mat(
        ainv_big, vec_to_mat(c, r)), bX.phi.rows), back)) for c in bE.ech)
    cols = bE.coordinates(images, bE.scale + vdet)
    if cols is None:
        raise HypothesisViolated(
            "E is not stable under the inverse Frobenius")
    cmap = SemilinearMap(big, list(zip(*cols)), back,
                         loss=max(bX.phi.loss, bE.loss))
    return {
        "big": big, "dval": dval, "bE": bE, "bvecs": B.vectors,
        "abig": bX.phi.rows, "ainv": ainv_big, "Cmap": cmap,
        "tables": _orbit_tables(cmap, _orbit_cap(ctx, r)),
        "teich": {},
    }


def trivialize_at_point(crystal: FIsocrystal, E: Lattice,
                        B: DeformationBasis, point, workspace=None) -> dict:
    """Straighten the twisted Frobenius at a residue-field point.

    With u = 1 + sum v_i [point_i] (Teichmuller coordinates), the partial
    products of the backward Frobenius orbit n_1, n_2, ... of u - 1
    converge, and the limit prod_k (1 + n_k) conjugates u * phi to phi.
    Every n_k is a combination of the echelon basis of E, which the
    workspace found square-zero, so every cross term of the product
    vanishes: the limit is exactly 1 + sum_k n_k, with inverse
    1 - sum_k n_k, and the orbit sum and its length ``steps`` come from
    the workspace's doubling tables (``_orbit_sum``) in O(log cap)
    matrix-vector products instead of one per step.  The Teichmuller
    lifts of the point come from the workspace's memo.  Computed at a
    boosted internal precision so the published certificate is good at
    the context precision; the one-time solve divisions and the final
    denominator clearing are what the boost absorbs.
    """
    ctx = crystal.ctx
    r = crystal.rank
    ws = workspace or prepare_trivializer(crystal, E, B)
    big = ws["big"]
    dval = ws["dval"]
    bE = ws["bE"]
    bvecs = ws["bvecs"]
    R = ring(big)
    # u_h = 1 + sum v_i teich(point_i)
    taus = [_teichmuller_raw(R, ws["teich"], coord) for coord in point]
    # an empty deformation basis twists by zero
    n0 = R.vec_mat(taus, bvecs) or [R.zero] * (r * r)
    ident = R.identity(r)
    u_h = R.add_mat(ident, vec_to_mat(n0, r))
    # backward-orbit coordinates: c_k = C^k c_0 on the basis of E
    coords = bE.solve(n0, 0)
    if coords is None:
        raise HypothesisViolated("the point twist does not lie in E")
    steps, total = _orbit_sum(R, ws["tables"], coords, ctx.N,
                              _orbit_cap(ctx, r))
    prod = prod_inv = ident
    if steps:
        # sum_k n_k = sum_l total_l B_l on the echelon basis B of E
        nk = vec_to_mat(R.vec_mat(total, bE.ech), r)
        prod = R.add_mat(ident, nk)
        prod_inv = R.sub_mat(ident, nk)
    # certificate: prod u_h A sigma(prod^{-1}) A^{-1} = 1
    lhs = R.mul_mat(R.mul_mat(prod, u_h), ws["abig"])
    lhs = R.mul_mat(lhs, R.frob_mat(prod_inv, 1))
    lhs = R.mul_mat(lhs, ws["ainv"])
    pd = R.of_int(big.p ** dval)
    verified = ctx.N
    for a_, row in enumerate(lhs):
        for b_, x in enumerate(row):
            if a_ == b_:
                x = R.sub(x, pd)
            # lhs carries the cleared p^dval, so subtract it from the
            # certified exponent; a zero (valuation big.N, and big.N - dval
            # exceeds N) certifies nothing less
            if not R.is_zero(x):
                verified = min(verified, max(0, R.val(x) - dval))
    return {
        "u_infinity": ring(ctx).raw_mat(prod),
        "steps": steps,
        "verified_modulus": verified,
        "loss": ctx.N - verified,
        "converged": True,
    }


def _orbit_cap(ctx, r):
    """The most orbit steps a point may take before NonConvergence."""
    return ctx.N * max(r, 2) + 10


def _orbit_tables(T, cap):
    """Doubling tables of the orbit map T: level j holds 2^j, P_j = T^(2^j)
    and Q_j = sum_{k=1..2^j} T^k, the latter as one map per twist class,
    keyed by the twist.  Levels 0..J-1 are built for the least J with
    2^J - 1 > cap, so a binary descent reaches any step count up to
    cap + 1."""
    P = T
    Q = {T.twist: T}
    levels = [(1, P, Q)]
    while (1 << len(levels)) - 1 <= cap:
        # Q_{j+1} = Q_j + P_j Q_j and P_{j+1} = P_j P_j
        nxt = dict(Q)
        for q in Q.values():
            pq = P.compose(q)
            t = pq.twist
            nxt[t] = nxt[t].add(pq) if t in nxt else pq
        P, Q = P.compose(P), nxt
        levels.append((1 << len(levels), P, Q))
    return levels


def _orbit_sum(R, levels, coords, N, cap):
    """(s, sum_{k=1..s} c_k) for the orbit c_k = T^k(coords) of the map
    whose doubling tables are ``levels``, s the number of leading c_k that
    do not vanish mod p^N; more than cap of them is NonConvergence.

    T is integral, so once c_k vanishes mod p^N every later term does: the
    terms that survive are exactly the prefix 1..s, and descending the
    levels finds s bit by bit, adding Q_j of the current term whenever the
    jump P_j lands on a surviving one.  The tables are exact modulo the
    ring's p^N, so the sum is the step-by-step sum entry for entry."""
    total = [R.zero] * len(coords)
    steps = 0
    for size, P, Q in reversed(levels):
        jump = P.apply_raw(coords)
        if R.vanishes(jump, N):
            continue
        for q in Q.values():
            total = list(map(R.add, total, q.apply_raw(coords)))
        coords = jump
        steps += size
    if steps > cap:
        raise NonConvergence("backward Frobenius orbit did not reach zero; "
                             "are the inverse-Frobenius slopes positive on E?")
    return steps, total


def _teichmuller_raw(R, memo, coord):
    """The raw Teichmuller lift of a residue coordinate (an int or a
    coefficient iterable), memoized in ``memo`` under its coefficients
    reduced mod p and padded to the residue degree."""
    p, n = R.p, R.ctx.n
    key = (coord,) if isinstance(coord, int) else tuple(coord)
    key = tuple(c % p for c in key) + (0,) * (n - len(key))
    lift = memo.get(key)
    if lift is None:
        lift = memo[key] = R.raw_col([R.ctx.teichmuller(key)])[0]
    return lift


# ---------------------------------------------------------------------------
# correction factor


def _factorial_valuation(j, p):
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    return v


def divided_power(R, y, j):
    """y^j / j! for a raw entry y of the ring R, exactly (requires
    v(y) >= 1 so the valuations stay non-negative)."""
    if j == 0:
        return R.one
    vfac = _factorial_valuation(j, R.p)
    f = 1
    for k in range(2, j + 1):
        f *= k
    unit = f // (R.p ** vfac)
    num = R.divide_p(R.power(y, j), vfac)
    return R.mul(num, R.inverse(R.of_int(unit)))


def _transport_terms(R, conn, powers, ys, i, vec, factor, acc):
    """Add to acc, at the point with the power table ``powers``, factor
    times every term of the divided-power sum that applies
    nabla(d/dx_k)^{j_k} y_k^{j_k}/j_k! for k >= i to the series vector
    vec."""
    if factor == R.zero:
        return
    if i == conn.B.n:
        for k, s in enumerate(vec):
            acc[k] = R.add(acc[k], R.mul(s.evaluate(powers), factor))
        return
    _transport_terms(R, conn, powers, ys, i + 1, vec, factor, acc)
    cur = vec
    for j in range(1, conn.dmax + 3):
        cur = _nabla(conn, cur, i)
        if all(s.is_zero() for s in cur):
            break
        _transport_terms(R, conn, powers, ys, i + 1, cur,
                         R.mul(factor, divided_power(R, ys[i], j)), acc)
    else:
        raise NonTermination(
            "derivative tower failed to terminate within the degree bound")


def correction_factor(crystal: FIsocrystal, conn: ConnectionForm, z
                      ) -> dict:
    """Divided-power transport comparing the twisted Frobenius at the
    point z (raw coordinates) with its value at the Teichmuller point;
    the returned matrix is raw.

    g(m) = sum over multi-indices j of (prod_i nabla(d/dx_i)^{j_i})(m)
    evaluated at z, times prod_i y_i^{j_i}/j_i!, with
    y_i = sigma(z_i) - z_i^p in p W(k).  Terms die exactly: a second
    one-form application vanishes by square-zero-ness and iterated plain
    derivatives exhaust the truncation degree.
    """
    ctx = crystal.ctx
    R = ring(ctx)
    r = crystal.rank
    n = conn.B.n
    dmax = conn.dmax
    ys = []
    for zi in z:
        y = R.sub(R.frob(zi, 1), R.power(zi, ctx.p))
        if R.val(y) < 1:
            raise ValidationFailed(
                "coordinate difference sigma(z) - z^p is not divisible "
                "by p")
        ys.append(y)

    ident = R.identity(r)
    powers = TruncatedSeries.power_table(R, z, dmax)
    grows = [[R.zero] * r for _ in range(r)]
    for col in range(r):
        base = [TruncatedSeries.constant(R, n, dmax, ident[k][col])
                for k in range(r)]
        acc = [R.zero] * r
        _transport_terms(R, conn, powers, ys, 0, base, R.one, acc)
        for k in range(r):
            grows[k][col] = acc[k]
    # assertions: g = 1 mod p, and 1 - g lands in E modulo p^2
    defect = [R.sub(ident[i][j], grows[i][j])
              for i in range(r) for j in range(r)]
    ok_unit = all(R.val(d) >= 1 for d in defect)
    return {
        "matrix": grows,
        "unit_mod_p": ok_unit,
        "defect_in_E_mod_p2": conn.E.contains_modulo(defect, 2),
        "y_valuations": [R.val(y) for y in ys],
    }
