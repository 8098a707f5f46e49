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

The point trivialization is the limit of the backward-orbit product
prod_k (1 + n_k) with every n_k in E.  When E * E = 0 (decided exactly,
once per ``prepare_trivializer`` workspace, at the boosted precision)
every cross term vanishes, so the product is 1 + sum_k n_k and its
inverse 1 - sum_k n_k; the orbit loop then only sums coordinates.  Any
other E falls back to multiplying the product out.  The conjugation
certificate is the same on both paths.

Matrices, lattice columns and deformation vectors are raw
(``matrix.ring``); series coefficients and evaluation points are
``WittScalar``.
"""

from __future__ import annotations

from .core import TangentSpace, nu_image, _nonzero_product
from .errors import (HypothesisViolated, InclusionViolated, NonConvergence,
                     NonTermination, ValidationFailed)
from .isocrystal import FIsocrystal, end_frobenius, vec_to_mat
from .lattices import (Lattice, SemilinearMap, lattice_sum, residue_echelon,
                       residue_spaces_equal, restrict_map)
from .matrix import ring
from .series import TruncatedSeries
from .witt import teichmuller


class DeformationBasis:
    """Vectors v_1..v_n inside a lattice E whose tangent classes are
    linearly independent (so they span nu of their own span); stored
    raw."""

    __slots__ = ("vectors", "E", "n")

    def __init__(self, vectors, E: Lattice):
        self.vectors = ring(E.ctx).raw_mat(vectors)
        self.E = E
        self.n = len(self.vectors)


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
    coefficient of (basis element l of E) d x_i."""

    __slots__ = ("crystal", "E", "basis", "B", "dmax", "w", "a", "b")

    def __init__(self, crystal, E, basis, B, dmax, w, a, b):
        self.crystal = crystal
        self.E = E
        self.basis = basis      # flattened E-basis vectors (echelon order)
        self.B = B
        self.dmax = dmax
        self.w = w
        self.a = a              # coords of p phi(e_l) in the E basis
        self.b = b              # coords of v_i in the E basis

    def basis_matrices(self):
        r = self.crystal.rank
        return [vec_to_mat(list(v), r) for v in self.basis]


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
    witness = _nonzero_product(ctx, crystal.rank, basis)
    if witness is not None:
        ia, ib = witness
        raise HypothesisViolated(
            f"E is not square-zero: basis elements {ia} and {ib} "
            "have a non-zero product")
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
    b = []
    for v in B.vectors:
        coords = E.solve(v, 0)
        if coords is None:
            raise HypothesisViolated(
                "a deformation vector does not lie in E")
        b.append(coords)
    bmat = [[b[i][j] for i in range(n)] for j in range(m)]  # b[j][i]
    w = {}
    for i in range(n):
        # term_0 = -b_i; term_{k+1} = O_i(term_k)
        terms = [[TruncatedSeries.constant(ctx, n, dmax, R.neg(bmat[j][i]))
                  for j in range(m)]]
        acc = [terms[0][j] for j in range(m)]
        guard = 0
        while True:
            prev = terms[-1]
            if all(t.is_zero() for t in prev):
                break
            xfac = TruncatedSeries.variable(ctx, n, dmax, i,
                                            power=ctx.p - 1) \
                if ctx.p - 1 <= dmax else TruncatedSeries.zero(ctx, n, dmax)
            nxt = []
            for j in range(m):
                s = TruncatedSeries.zero(ctx, n, dmax)
                for l in range(m):
                    if a[j][l] == R.zero:
                        continue
                    s = s + prev[l].frobenius_lift() * a[j][l]
                nxt.append(s * xfac)
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
    ctx = conn.crystal.ctx
    zero = ring(ctx).zero
    n = conn.B.n
    m = len(conn.basis)
    dmax = conn.dmax
    out = {}
    for i in range(n):
        xfac = TruncatedSeries.variable(ctx, n, dmax, i, power=ctx.p - 1)
        for j in range(m):
            rhs = TruncatedSeries.zero(ctx, n, dmax)
            for l in range(m):
                if conn.a[j][l] != zero:
                    rhs = rhs + conn.w[(l, i)].frobenius_lift() \
                        * conn.a[j][l]
            rhs = rhs * xfac
            lhs = conn.w[(j, i)] + TruncatedSeries.constant(
                ctx, n, dmax, conn.b[j][i])
            out[(j, i)] = (lhs - rhs, min(lhs.valid, rhs.valid))
    return out


def _combine(R, coeffs, vecs, length):
    """sum_k coeffs[k] vecs[k] on raw vectors of the given length."""
    out = [R.zero] * length
    for c, v in zip(coeffs, vecs):
        if c != R.zero:
            out = R.axpy(out, R.neg(c), v)
    return out


# ---------------------------------------------------------------------------
# the universal element and the twisted Frobenius on series vectors


def universal_element(crystal: FIsocrystal, B: DeformationBasis, dmax: int):
    """1 + sum v_i x_i as an r x r matrix of series."""
    ctx = crystal.ctx
    zero = ring(ctx).zero
    r = crystal.rank
    n = B.n
    rows = [[TruncatedSeries.zero(ctx, n, dmax) for _ in range(r)]
            for _ in range(r)]
    for i in range(r):
        rows[i][i] = TruncatedSeries.constant(ctx, n, dmax, ctx.one)
    for idx, v in enumerate(B.vectors):
        mat = vec_to_mat(v, r)
        xi = TruncatedSeries.variable(ctx, n, dmax, idx)
        for a_ in range(r):
            for b_ in range(r):
                if mat[a_][b_] != zero:
                    rows[a_][b_] = rows[a_][b_] + xi * mat[a_][b_]
    return rows


def _series_mat_vec(rows, vec):
    out = []
    for row in rows:
        acc = None
        for a_, s in zip(row, vec):
            term = a_ * s
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _nabla(conn, vec, i):
    """nabla(d/dx_i) on a vector of series: the partial derivative plus
    omega_i = sum_l w[(l, i)] * (basis element l of E) applied to it."""
    ctx = conn.crystal.ctx
    zero = ring(ctx).zero
    r = conn.crystal.rank
    out = [s.partial(i) for s in vec]
    # each entry of E e_l vec is trusted only through the window of every
    # entry of vec, zero matrix entries included
    floor = TruncatedSeries(ctx, conn.B.n, conn.dmax,
                            valid=min(s.valid for s in vec))
    for l, v in enumerate(conn.basis):
        w_li = conn.w[(l, i)]
        if w_li.is_zero():
            continue
        for k, row in enumerate(vec_to_mat(v, r)):
            e = floor
            for x, s in zip(row, vec):
                if x != zero:
                    e = e + s * x
            out[k] = out[k] + e * w_li
    return out


def apply_twisted_frobenius(crystal, u_rows, vec):
    """Phi_N(vec) = u * (A * Phi_S(vec)) for a vector of series."""
    ctx = crystal.ctx
    zero = ring(ctx).zero
    lifted = [s.frobenius_lift() for s in vec]
    avec = []
    for i in range(crystal.rank):
        acc = None
        for j in range(crystal.rank):
            c = crystal.phi.rows[i][j]
            if c == zero:
                continue
            term = lifted[j] * c
            acc = term if acc is None else acc + term
        if acc is None:
            acc = TruncatedSeries.zero(ctx, lifted[0].nvars, lifted[0].dmax)
        avec.append(acc)
    return _series_mat_vec(u_rows, avec)


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
    u_rows = universal_element(crystal, conn.B, dmax)
    emats = conn.basis_matrices()
    basis_cols = split.F1.cols + split.F0.cols
    max_residual_val = None
    window = dmax
    for cvec in basis_cols:
        const = [TruncatedSeries.constant(ctx, n, dmax, x) for x in cvec]
        phin_c = apply_twisted_frobenius(crystal, u_rows, const)
        for i in range(n):
            lhs = _nabla(conn, phin_c, i)
            # right side: Phi_N applied to omega_i(c), times p x_i^(p-1)
            omega_c = [TruncatedSeries.zero(ctx, n, dmax) for _ in range(r)]
            for l, emat in enumerate(emats):
                w_li = conn.w[(l, i)]
                if w_li.is_zero():
                    continue
                ec = [R.dot(row, cvec) for row in emat]
                for k in range(r):
                    if ec[k] != R.zero:
                        omega_c[k] = omega_c[k] + w_li * ec[k]
            rhs = apply_twisted_frobenius(crystal, u_rows, omega_c)
            pfac = TruncatedSeries.variable(ctx, n, dmax, i,
                                            power=ctx.p - 1).scale_p(1) \
                if ctx.p - 1 <= dmax else None
            rhs = [s * pfac if pfac is not None
                   else TruncatedSeries.zero(ctx, n, dmax) for s in rhs]
            for k in range(r):
                diff = lhs[k] - rhs[k]
                window = min(window, diff.valid)
                for e, c in diff.coeffs.items():
                    if sum(e) > diff.valid:
                        continue
                    v = c.valuation()
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
        c0 = R.raw_col([conn.w[(l, i)].constant_term()
                        for l in range(len(conn.basis))])
        # the degree-zero coefficient sum_l c0_l e_l is -v_i
        v = _combine(R, c0, conn.basis, r * r)
        classes.append(tangent.nu_matrix(vec_to_mat(list(map(R.neg, v)),
                                                    r)))
    ech, _ = residue_echelon(ctx, classes)
    want = [tangent.nu_matrix(vec_to_mat(v, r)) for v in conn.B.vectors]
    if not residue_spaces_equal(ctx, classes, want):
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
    """One-time boosted-precision setup shared by all evaluation points:
    the lifted module data, the backward-conjugation matrix on E, and
    whether E is square-zero at the boosted precision (every product of
    two echelon basis elements vanishes), which selects the orbit sum."""
    ctx = crystal.ctx
    _, dval = crystal.inverse_numerator()
    delta = E.index_valuation()
    bX = crystal.at_precision(ctx.N + delta + 2 * dval + 8)
    big = bX.ctx
    # raw entries are integer representatives, valid at the boost too
    bE = Lattice.from_columns(big, E.ambient, E.cols, scale=E.scale)
    ainv_big, _ = bX.inverse_numerator()
    abig = bX.phi.rows
    # column l of "ech_rows" is echelon vector l of E, flattened
    return {
        "big": big, "dval": dval, "bE": bE, "bvecs": B.vectors,
        "abig": abig, "ainv": ainv_big,
        "Cmap": _restrict_inverse_conj(big, bE, abig, ainv_big, dval),
        "ech_rows": list(zip(*bE.ech)),
        "square_zero": _nonzero_product(big, crystal.rank, bE.ech) is None,
    }


def trivialize_at_point(crystal: FIsocrystal, E: Lattice,
                        B: DeformationBasis, point, workspace=None) -> dict:
    """Straighten the twisted Frobenius at a residue-field point.

    With u = 1 + sum v_i [point_i] (Teichmuller coordinates), the partial
    products of the backward Frobenius orbit n_1, n_2, ... of u - 1
    converge, and the limit prod_k (1 + n_k) conjugates u * phi to phi.
    Every n_k is a combination of the echelon basis of E, so when the
    workspace found E square-zero every cross term of the product
    vanishes: the limit is exactly 1 + sum_k n_k, with inverse
    1 - sum_k n_k, and the loop only sums the orbit coordinates.  Any
    other E takes the product loop.  Computed at a boosted internal
    precision so the published certificate is good at the context
    precision; the one-time solve divisions and the final denominator
    clearing are what the boost absorbs.
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
    taus = R.raw_col([teichmuller(big, coord) for coord in point])
    n0 = _combine(R, taus, bvecs, r * r)
    ident = R.identity(r)
    u_h = R.add_mat(ident, vec_to_mat(n0, r))
    # backward-orbit coordinates: c_k = C^k c_0 on the basis of E
    coords = bE.solve(n0, 0)
    if coords is None:
        raise HypothesisViolated("the point twist does not lie in E")
    ech_rows = ws["ech_rows"]
    orbit = _backward_orbit(R, ws["Cmap"], coords, ctx.N,
                            ctx.N * max(r, 2) + 10)
    steps = 0
    prod = prod_inv = ident
    if ws["square_zero"]:
        total = [R.zero] * len(coords)
        for c in orbit:
            steps += 1
            total = list(map(R.add, total, c))
        if steps:
            nk = vec_to_mat([R.dot(row, total) for row in ech_rows], r)
            prod = R.add_mat(ident, nk)
            prod_inv = R.sub_mat(ident, nk)
    else:
        for c in orbit:
            steps += 1
            nk = vec_to_mat([R.dot(row, c) for row in ech_rows], r)
            prod = R.mul_mat(R.add_mat(ident, nk), prod)
            prod_inv = R.mul_mat(prod_inv, R.nilpotent_inverse(nk, r))
    # certificate: prod u_h A sigma(prod^{-1}) A^{-1} = 1
    lhs = R.mul_mat(R.mul_mat(prod, u_h), ws["abig"])
    lhs = R.mul_mat(lhs, [[R.frob(x, 1) for x in row] for row in prod_inv])
    lhs = R.mul_mat(lhs, ws["ainv"])
    pd = R.of_int(big.p ** dval)
    verified = ctx.N
    for a_, row in enumerate(lhs):
        for b_, x in enumerate(row):
            if a_ == b_:
                x = R.sub(x, pd)
            # lhs carries the cleared p^dval, so subtract it from the
            # certified exponent
            verified = min(verified, max(0, R.val(x) - dval))
    return {
        "u_infinity": ring(ctx).raw_mat(prod),
        "steps": steps,
        "verified_modulus": verified,
        "loss": ctx.N - verified,
        "converged": True,
    }


def _backward_orbit(R, Cmap, coords, N, cap):
    """The coordinates c_k = C sigma^{-1}(c_{k-1}), k = 1, 2, ..., up to
    the first that vanishes mod p^N; more than cap of them is
    NonConvergence."""
    back = (-1) % R.ctx.n
    dot = R.dot
    steps = 0
    while True:
        # the inverse conjugation is sigma^{-1}-semilinear: twist the
        # coordinates before applying the restriction matrix
        twisted = [R.frob(c, back) for c in coords]
        coords = [dot(row, twisted) for row in Cmap]
        if R.vanishes(coords, N):
            return
        steps += 1
        if steps > cap:
            raise NonConvergence(
                "backward Frobenius orbit did not reach zero; are the "
                "inverse-Frobenius slopes positive on E?")
        yield coords


def _restrict_inverse_conj(ctx, E, arows, ainv_rows, dval):
    """Matrix (on the echelon basis of E) of x -> phi^{-1} x phi,
    i.e. sigma^{-1}(A^{-1} x A) with the p-denominator divided out."""
    R = ring(ctx)
    m = E.rank
    r = len(arows)
    e = (-1) % ctx.n
    cols = []
    for cvec in E.ech:
        prod = R.mul_mat(R.mul_mat(ainv_rows, vec_to_mat(cvec, r)), arows)
        coords = E.solve([R.divide_p(R.frob(x, e), dval)
                          for row in prod for x in row], 0)
        if coords is None:
            raise HypothesisViolated(
                "E is not stable under the inverse Frobenius")
        cols.append(coords)
    return [[cols[l][j] for l in range(m)] for j in range(m)]


# ---------------------------------------------------------------------------
# correction factor


def _factorial_valuation(j, p):
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    return v


def divided_power(ctx, y, j):
    """y^j / j! as an exact scalar (requires v(y) >= 1 so the valuations
    stay non-negative)."""
    if j == 0:
        return ctx.one
    num = y ** j
    vfac = _factorial_valuation(j, ctx.p)
    f = 1
    for k in range(2, j + 1):
        f *= k
    unit = f // (ctx.p ** vfac)
    num = num.divide_p(vfac)
    return num * ctx.scalar(unit).inverse()


def correction_factor(crystal: FIsocrystal, conn: ConnectionForm, z
                      ) -> dict:
    """Divided-power transport comparing the twisted Frobenius at the
    point z with its value at the Teichmuller point.

    g(m) = sum over multi-indices j of (prod_i nabla(d/dx_i)^{j_i})(m)
    evaluated at z, times prod_i y_i^{j_i}/j_i!, with
    y_i = sigma(z_i) - z_i^p in p W(k).  Terms die exactly: a second
    one-form application vanishes by square-zero-ness and iterated plain
    derivatives exhaust the truncation degree.
    """
    ctx = crystal.ctx
    r = crystal.rank
    n = conn.B.n
    dmax = conn.dmax
    zs = [ctx.scalar(v) for v in z]
    ys = []
    for zi in zs:
        y = zi.frobenius() - zi ** ctx.p
        if not y.is_zero() and y.valuation() < 1:
            raise ValidationFailed(
                "coordinate difference sigma(z) - z^p is not divisible "
                "by p")
        ys.append(y)

    grows = [[ctx.zero] * r for _ in range(r)]
    for col in range(r):
        base = [TruncatedSeries.constant(
            ctx, n, dmax, ctx.one if k == col else ctx.zero)
            for k in range(r)]
        acc = [ctx.zero] * r

        def walk(i, vec, factor):
            nonlocal acc
            if factor.is_zero():
                return
            if i == n:
                val = [s.evaluate(zs) for s in vec]
                for k in range(r):
                    if not val[k].is_zero():
                        acc[k] = acc[k] + val[k] * factor
                return
            walk(i + 1, vec, factor)
            cur = vec
            for j in range(1, dmax + 3):
                cur = _nabla(conn, cur, i)
                if all(s.is_zero() for s in cur):
                    break
                dp = divided_power(ctx, ys[i], j)
                walk(i + 1, cur, factor * dp)
            else:
                raise NonTermination(
                    "derivative tower failed to terminate within the "
                    "degree bound")

        walk(0, base, ctx.one)
        for k in range(r):
            grows[k][col] = acc[k]
    # assertions: g = 1 mod p, and 1 - g lands in E modulo p^2
    ok_unit = all((grows[i][j] - (ctx.one if i == j else ctx.zero)
                   ).valuation() >= 1 for i in range(r) for j in range(r))
    defect = [ctx.zero] * (r * r)
    for i in range(r):
        for j in range(r):
            d = (ctx.one if i == j else ctx.zero) - grows[i][j]
            defect[i * r + j] = d
    R = ring(ctx)
    p2 = R.of_int(ctx.p ** 2)
    p2end = Lattice.from_columns(
        ctx, r * r, [R.scale(col, p2) for col in R.identity(r * r)])
    e_plus_p2 = lattice_sum(conn.E, p2end)
    in_E_mod_p2 = e_plus_p2.contains_vector(defect)
    return {
        "matrix": grows,
        "unit_mod_p": ok_unit,
        "defect_in_E_mod_p2": in_E_mod_p2,
        "y_valuations": [y.valuation() for y in ys],
    }
