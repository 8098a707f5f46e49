"""Problem files, the analysis orchestrator, and report emission.

A problem file is a JSON document (exact grammar in the README): integers
in decimal, Witt scalars as coefficient arrays, rationals as "a/b"
strings.  Reports are deterministic: analyses run in name order and the
structured output is canonical JSON, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

from . import __version__
from .core import (TangentSpace, check_axioms, hodge_splitting,
                   hodge_splitting_from_kernel, lie_element, nu_image)
from .deformation import (DeformationBasis, correction_factor,
                          kodaira_spencer_image, prepare_trivializer,
                          select_deformation_basis, solve_connection,
                          trivialize_at_point, verify_horizontality)
from .errors import (DieudonneError, ParseError, VerificationMismatch)
from .isocrystal import (FIsocrystal, dim_codim, end_decompose,
                         newton_slopes, slope_split)
from .lattices import Lattice, SemilinearMap
from .matrix import ring
from .signs import (SlopePairSet, max_square_zero_size, quasi_factor_codims,
                    sign_modules, slice_monotone, slice_report, strings)
from .strata import (group_custom, group_full_gl, group_symplectic,
                     polarized_dim, strata_dims, traverso_dimension)
from .witt import PRIME_BOUND, is_prime, make_context

# Input bounds beside the p bound (PRIME_BOUND): every accepted problem
# runs in bounded time and memory.  The corpus stays well inside them.
RANK_BOUND = 16
RESIDUE_DEGREE_BOUND = 16
PRECISION_BOUND = 4096
# a series holds every monomial up to the degree, degree^variables of them
DEGREE_BOUND = 64

ANALYSES = ["slopes", "decompose", "ominus", "axioms", "dual", "slices",
            "connection", "trivialize", "correction", "strata", "traverso",
            "polarized"]


# ---------------------------------------------------------------------------
# problem specifications


class ProblemSpec:
    FIELDS = ("name", "p", "n", "precision", "degree", "rank", "phi_matrix",
              "phi_denominator", "hodge_f1", "symplectic_gram", "group",
              "lattice_e", "lie_element_t", "slope_pairs",
              "deformation_basis", "points")

    def __init__(self, **kw):
        for f in self.FIELDS:
            setattr(self, f, kw.get(f))

    def as_dict(self):
        out = {}
        for f in self.FIELDS:
            v = getattr(self, f)
            if v is not None:
                out[f] = v
        return out

    def __eq__(self, other):
        return isinstance(other, ProblemSpec) and \
            self.as_dict() == other.as_dict()

    def __repr__(self):
        return f"ProblemSpec({self.name!r}, p={self.p}, rank={self.rank})"


def _expect(cond, field, msg):
    if not cond:
        raise ParseError(f"field '{field}': {msg}")


def _is_int(x):
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _check_entry(e, n, field):
    if _is_int(e):
        return e
    if isinstance(e, list) and all(_is_int(x) for x in e):
        _expect(len(e) <= n, field,
                f"coefficient array longer than the residue degree {n}")
        return e
    raise ParseError(f"field '{field}': entries must be integers or "
                     "integer coefficient arrays")


def _check_matrix(m, r, n, field):
    _expect(isinstance(m, list) and len(m) == r, field, f"expected {r} rows")
    for row in m:
        _expect(isinstance(row, list) and len(row) == r, field,
                f"rows must have {r} entries (matrix must be square "
                "of the stated rank)")
        for e in row:
            _check_entry(e, n, field)
    return m


def parse_dict(doc, name=None) -> ProblemSpec:
    if not isinstance(doc, dict):
        raise ParseError("problem document must be a JSON object")
    unknown = set(doc) - set(ProblemSpec.FIELDS)
    _expect(not unknown, ",".join(sorted(unknown)), "unknown field(s)")
    for field in ("p", "rank", "phi_matrix"):
        _expect(field in doc, field, "required field missing")
    p = doc["p"]
    _expect(_is_int(p) and p < PRIME_BOUND and is_prime(p), "p",
            "must be a prime below 2^64")
    n = doc.get("n", 1)
    _expect(_is_int(n) and 1 <= n <= RESIDUE_DEGREE_BOUND, "n",
            f"must be an integer from 1 to {RESIDUE_DEGREE_BOUND}")
    N = doc.get("precision", 40)
    _expect(_is_int(N) and 2 <= N <= PRECISION_BOUND, "precision",
            f"must be an integer from 2 to {PRECISION_BOUND}")
    default_degree = 2 * (p - 1) + 1
    degree = doc.get("degree", default_degree)
    # the connection's recursion needs the degrees up to p - 1 (>= 1); the
    # default always parses, so p itself stays uncapped
    cap = max(DEGREE_BOUND, default_degree)
    _expect(_is_int(degree) and p - 1 <= degree <= cap, "degree",
            f"must be an integer from p - 1 to {cap}, the larger of the "
            f"bound {DEGREE_BOUND} and the default 2(p - 1) + 1")
    r = doc["rank"]
    _expect(_is_int(r) and 1 <= r <= RANK_BOUND, "rank",
            f"must be an integer from 1 to {RANK_BOUND}")
    phi = _check_matrix(doc["phi_matrix"], r, n, "phi_matrix")
    _expect(_is_int(doc.get("phi_denominator", 0)), "phi_denominator",
            "must be an integer")
    spec = ProblemSpec(
        name=doc.get("name", name or "unnamed"),
        p=p, n=n, precision=N, degree=degree, rank=r, phi_matrix=phi,
        phi_denominator=doc.get("phi_denominator", 0),
    )
    if "hodge_f1" in doc:
        h = doc["hodge_f1"]
        if isinstance(h, list) and all(_is_int(i) for i in h):
            _expect(all(0 <= i < r for i in h), "hodge_f1",
                    "column indices out of range")
        elif isinstance(h, dict) and isinstance(h.get("columns"), list):
            for col in h["columns"]:
                _expect(isinstance(col, list) and len(col) == r, "hodge_f1",
                        "explicit columns must have length rank")
                for e in col:
                    _check_entry(e, n, "hodge_f1")
        else:
            raise ParseError("field 'hodge_f1': must be a list of column "
                             "indices or {\"columns\": [...]}")
        spec.hodge_f1 = h
    if "symplectic_gram" in doc:
        spec.symplectic_gram = _check_matrix(doc["symplectic_gram"], r, n,
                                             "symplectic_gram")
    if "group" in doc:
        g = doc["group"]
        _expect(isinstance(g, dict) and g.get("kind") in
                ("full-gl", "symplectic", "custom"), "group",
                "kind must be full-gl, symplectic, or custom")
        if g["kind"] == "custom":
            _expect(isinstance(g.get("basis"), list), "group",
                    "custom groups need a basis list")
            for mat in g["basis"]:
                _check_matrix(mat, r, n, "group.basis")
        spec.group = g
    for field in ("lattice_e", "slope_pairs", "deformation_basis"):
        _expect(isinstance(doc.get(field, []), list), field, "must be a list")
    if "lattice_e" in doc:
        for mat in doc["lattice_e"]:
            _check_matrix(mat, r, n, "lattice_e")
        spec.lattice_e = doc["lattice_e"]
    if "lie_element_t" in doc:
        t = doc["lie_element_t"]
        _expect(isinstance(t, dict) and "matrix" in t, "lie_element_t",
                "must be {matrix, denominator?}")
        _check_matrix(t["matrix"], r, n, "lie_element_t")
        _expect(_is_int(t.get("denominator", 0)), "lie_element_t",
                "denominator must be an integer")
        spec.lie_element_t = t
    if "slope_pairs" in doc:
        for pair in doc["slope_pairs"]:
            _expect(isinstance(pair, list) and len(pair) == 2, "slope_pairs",
                    "entries must be [a, b] slope pairs")
            a, b = map(_parse_fraction, pair)
            _expect(a < b, "slope_pairs", f"pair [{a}, {b}] is not increasing")
        spec.slope_pairs = doc["slope_pairs"]
    if "deformation_basis" in doc:
        for mat in doc["deformation_basis"]:
            _check_matrix(mat, r, n, "deformation_basis")
        spec.deformation_basis = doc["deformation_basis"]
    if "points" in doc:
        points = doc["points"]
        _expect(isinstance(points, list)
                and all(isinstance(pt, list) for pt in points), "points",
                "must be a list of coordinate lists")
        for point in points:
            for coord in point:
                _check_entry(coord, n, "points")
        spec.points = points
    return spec


def _parse_fraction(s):
    """An integer, or a string "a" or "a/b" of decimal digits with an
    optional leading minus; checked before ``Fraction`` sees it, which
    would also expand decimal points and exponents."""
    try:
        if _is_int(s):
            return Fraction(s)
        if isinstance(s, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"field 'slope_pairs': bad rational {s!r}")


def parse_file(path) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: line {exc.lineno}, "
                         f"column {exc.colno}")
    return parse_dict(doc)


def emit_spec(spec: ProblemSpec) -> bytes:
    """Canonical structured form of a problem (stable byte-for-byte)."""
    return (json.dumps(spec.as_dict(), sort_keys=True, indent=1,
                       separators=(",", ": ")) + "\n").encode()


# ---------------------------------------------------------------------------
# the session: shared computed state


class Session:
    """Lazy caches for the chain context -> crystal -> slopes ->
    decomposition -> splitting used by all analyses, and for the data
    that more than one analysis reads: the deformation lattice and basis,
    the connection, the group data and their strata reports.

    The group data (``group``, ``symplectic_group``) and their
    ``strata_dims`` reports (``strata``) are kept here, not in the
    ``_derived`` caches of the crystal or the decomposition: a
    ``GroupData`` holds its crystal, and a cache that led back to its
    crystal would be a reference cycle, which walks over those caches
    (such as the span-input keys of ``bench/tracer.py``) do not expect."""

    def __init__(self, spec: ProblemSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        self._cache = {}

    def _cached(self, key, build):
        """``_cache[key]``, from ``build()`` on first use; a failure is
        not cached, so it is raised again on the next call."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def ctx(self):
        return self._cached("ctx", lambda: make_context(
            self.spec.p, self.spec.n, self.spec.precision))

    def crystal(self) -> FIsocrystal:
        return self._cached("crystal", lambda: FIsocrystal.from_int_matrix(
            self.ctx(), self.spec.phi_matrix,
            self.spec.phi_denominator or 0))

    def slope_data(self):
        return self._cached("slopes", lambda: slope_split(self.crystal()))

    def decomp(self):
        return self._cached("decomp",
                            lambda: end_decompose(self.slope_data()))

    def tangent(self):
        return self._cached("tangent", lambda: TangentSpace.of(
            self.crystal()))

    def o_minus(self):
        return self._cached("o_minus", lambda: self.decomp().o_minus())

    def split(self):
        return self._cached("split", self._split)

    def _split(self):
        f1 = self.spec.hodge_f1
        if f1 is None:
            return hodge_splitting_from_kernel(self.crystal())
        if isinstance(f1, dict):
            return hodge_splitting(self.crystal(), f1["columns"])
        r = self.spec.rank
        cols = [[int(k == i) for k in range(r)] for i in f1]
        return hodge_splitting(self.crystal(), cols)

    def lattice_e(self):
        """The deformation lattice: explicit when given, else the negative
        stable lattice of the requested slope-pair set, by default of all
        of them (square-zero pair sets give square-zero lattices)."""
        return self._cached("lattice_e", self._lattice_e)

    def _lattice_e(self):
        if self.spec.lattice_e is None:
            return self.decomp().o_minus(self.pair_set().pairs)
        r = self.spec.rank
        ctx = self.ctx()
        cols = [_flatten(mat) for mat in self.spec.lattice_e]
        return Lattice.from_columns(ctx, r * r, ring(ctx).raw_mat(cols))

    def pair_set(self) -> SlopePairSet:
        slopes = self.slope_data().slope_list
        if self.spec.slope_pairs is None:
            return SlopePairSet.full(slopes)
        pairs = [(_parse_fraction(a), _parse_fraction(b))
                 for (a, b) in self.spec.slope_pairs]
        unknown = {s for pair in pairs for s in pair} - set(slopes)
        _expect(not unknown, "slope_pairs",
                "not slopes of the crystal: "
                + ", ".join(map(str, sorted(unknown))))
        return SlopePairSet(pairs, slopes)

    def deformation_basis(self) -> DeformationBasis:
        return self._cached("defbasis", self._deformation_basis)

    def _deformation_basis(self):
        if self.spec.deformation_basis is None:
            return select_deformation_basis(self.lattice_e(), self.tangent())
        vecs = [_flatten(mat) for mat in self.spec.deformation_basis]
        return DeformationBasis(vecs, self.lattice_e())

    def connection(self):
        """The connection one-form on the deformation lattice and basis,
        solved once."""
        return self._cached("connection", lambda: solve_connection(
            self.crystal(), self.lattice_e(), self.deformation_basis(),
            self.spec.degree))

    def group(self):
        """The problem's group datum: full GL unless ``group`` names the
        symplectic group or a custom one."""
        return self._cached("group", self._group)

    def _group(self):
        g = self.spec.group
        X = self.crystal()
        if g is None or g["kind"] == "full-gl":
            return group_full_gl(X)
        if g["kind"] == "symplectic":
            return self.symplectic_group()
        return group_custom(X, [_flatten(mat) for mat in g["basis"]])

    def symplectic_group(self):
        """The symplectic group datum of ``symplectic_gram``, read by the
        strata of a symplectic problem and by ``polarized``."""
        if self.spec.symplectic_gram is None:
            raise ParseError("symplectic group data needs symplectic_gram")
        return self._cached("symplectic", lambda: group_symplectic(
            self.crystal(), self.spec.symplectic_gram))

    def strata(self, gd):
        """The ``strata_dims`` report of a group datum of this session,
        once per datum (a session holds one datum of each kind)."""
        return self._cached(("strata", gd.kind), lambda: strata_dims(
            gd, self.decomp(), self.split(), self.tangent()))

    def rng(self):
        return random.Random(self.seed)


def _flatten(mat):
    """A matrix of the problem file, flattened row-major (the End(M)
    coordinates)."""
    return [e for row in mat for e in row]


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 \
        else str(f.numerator)


# ---------------------------------------------------------------------------
# analyses


def run_slopes(sess: Session) -> dict:
    X = sess.crystal()
    slopes = newton_slopes(X)
    c, d = dim_codim(X) if X.is_dieudonne() else (None, None)
    out = {
        "slopes": [[_frac(a), m] for (a, m) in slopes],
        "isoclinic": len(slopes) == 1,
        "ok": True,
    }
    if c is not None:
        out["codimension"] = c
        out["dimension"] = d
        total = sum(Fraction(a) * m for (a, m) in slopes)
        out["newton_endpoint_matches_dimension"] = (total == d)
        out["ok"] = out["newton_endpoint_matches_dimension"]
    return out


def run_decompose(sess: Session) -> dict:
    S = sess.slope_data()
    E = sess.decomp()
    comp = {_frac(a): lat.rank for a, lat in S.components.items()}
    return {
        "component_ranks": comp,
        "module_splits_integrally": S.is_split,
        "V_plus_rank": E.V_plus.rank,
        "V_minus_rank": E.V_minus.rank,
        "projector_denominators": {
            _frac(a): pr.denominator for a, pr in S.projectors.items()},
        "ok": True,
    }


def run_ominus(sess: Session) -> dict:
    O = sess.o_minus()
    T = sess.tangent()
    dim = nu_image(O, T)[0] if O.rank else 0
    out = {
        "O_minus_rank": O.rank,
        "tangent_dimension": dim,
        "loss": O.loss,
        "ok": True,
    }
    if O.rank:
        out["codimension"] = sess.decomp().c_minus()
        out["ok"] = (out["codimension"] == dim)
    Elat = sess.lattice_e()
    if sess.spec.lattice_e is not None:
        out["E_rank"] = Elat.rank
        out["E_tangent_dimension"] = nu_image(Elat, T)[0]
    return out


def run_axioms(sess: Session) -> dict:
    ctx = sess.ctx()
    E = sess.lattice_e()
    split = None
    try:
        split = sess.split()
    except DieudonneError:
        split = None
    report = check_axioms(E, sess.decomp(), split)
    out = report.as_dict()
    out["ok"] = report.all_pass()
    if sess.spec.lie_element_t is not None:
        t_doc = sess.spec.lie_element_t
        t = SemilinearMap(ctx, ring(ctx).raw_mat(t_doc["matrix"]),
                          denominator=t_doc.get("denominator", 0))
        try:
            lie_element(E, sess.slope_data(), user_t=t)
            out["lie_element_valid"] = True
        except DieudonneError as exc:
            out["lie_element_valid"] = False
            out["lie_element_error"] = str(exc)
            out["ok"] = False
    return out


def run_dual(sess: Session) -> dict:
    E = sess.decomp()
    Y = sess.pair_set()
    if not Y.pairs:
        return {"pairs": [], "ok": True, "note": "no slope pairs"}
    mods = sign_modules(E, Y)
    return {
        "pairs": [[_frac(a), _frac(b)] for (a, b) in Y.pairs],
        "V_plus_rank": mods.V_plus.rank,
        "V_minus_rank": mods.V_minus.rank,
        "O_plus_rank": mods.O_plus.rank,
        "O_minus_rank": mods.O_minus.rank,
        "O_plus_minus_rank": mods.O_plus_minus.rank,
        "O_minus_plus_rank": mods.O_minus_plus.rank,
        "c_minus": E.c_minus(Y.pairs),
        "duality_crosschecks_passed": True,
        "losses": {"O_minus": mods.O_minus.loss,
                   "O_plus_minus": mods.O_plus_minus.loss},
        "ok": True,
    }


def run_slices(sess: Session) -> dict:
    S = sess.slope_data()
    E = sess.decomp()
    T = sess.tangent()
    Y = sess.pair_set()
    out = {"pairs": [[_frac(a), _frac(b)] for (a, b) in Y.pairs]}
    if not Y.pairs:
        out.update({"square_zero": True, "ok": True})
        return out
    report = slice_report(E, Y, tangent=T)
    out.update(report)
    lower, upper = strings(S)
    out["lower_strings"] = {
        _frac(a): len(v) for a, v in lower.items()}
    out["upper_strings"] = {
        _frac(a): len(v) for a, v in upper.items()}
    m = len(S.slope_list)
    if m >= 2:
        out["chain_sizes"] = [lvl * (m - lvl) for lvl in range(1, m)]
        out["max_square_zero_size"] = max_square_zero_size(m)
    # the subsets of at most one pair and those that omit at most one:
    # every subset when Y has at most 3 pairs
    P = Y.pairs
    family = {(), P}
    for i in range(len(P)):
        family |= {P[i:i + 1], P[:i] + P[i + 1:]}
    monotone_ok = all(slice_monotone(E, Y, SlopePairSet(Y1, Y.slopes))
                      for Y1 in sorted(family))
    out["subset_monotonicity"] = monotone_ok
    out["ok"] = monotone_ok and (report.get("square_vanishes", True)
                                 if report["square_zero"] else True)
    return out


def run_connection(sess: Session) -> dict:
    conn = sess.connection()
    series = {}
    for (l, i), s in sorted(conn.w.items()):
        if not s.is_zero():
            series[f"w[{l},{i}]"] = repr(s)
    out = {
        "variables": conn.B.n,
        "series": series,
        "ok": True,
    }
    try:
        split = sess.split()
        hor = verify_horizontality(sess.crystal(), conn, split)
        out["horizontality"] = hor
        out["ok"] = hor["vanishes"]
    except DieudonneError as exc:
        out["horizontality"] = f"skipped: {exc}"
    dim, _ = kodaira_spencer_image(conn, sess.tangent())
    out["kodaira_spencer_dimension"] = dim
    return out


def run_trivialize(sess: Session) -> dict:
    X = sess.crystal()
    E = sess.lattice_e()
    B = sess.deformation_basis()
    slopes = newton_slopes(X)
    if len(slopes) == 1:
        return {"ok": True, "note": "isoclinic module: nothing to do"}
    ctx = sess.ctx()
    rng = sess.rng()
    points = sess.spec.points
    if points is None:
        points = [[tuple(rng.randrange(ctx.p) for _ in range(ctx.n))
                   for _ in range(B.n)] for _ in range(3)]
    _expect(all(len(pt) == B.n for pt in points), "points",
            f"each point needs {B.n} coordinates, one per variable")
    results = []
    ok = True
    ws = prepare_trivializer(X, E, B)
    for point in points:
        res = trivialize_at_point(X, E, B, point, workspace=ws)
        results.append({"steps": res["steps"],
                        "verified_modulus": res["verified_modulus"]})
        if res["verified_modulus"] < ctx.N - 4:
            ok = False
    return {"points": len(points), "results": results, "ok": ok}


def run_correction(sess: Session) -> dict:
    conn = sess.connection()
    z = [ring(sess.ctx()).of_int(sess.spec.p)] * conn.B.n
    out = correction_factor(sess.crystal(), conn, z)
    return {
        "unit_mod_p": out["unit_mod_p"],
        "defect_in_E_mod_p2": out["defect_in_E_mod_p2"],
        "y_valuations": out["y_valuations"],
        "ok": out["unit_mod_p"] and out["defect_in_E_mod_p2"],
    }


def run_strata(sess: Session) -> dict:
    gd = sess.group()
    rep = sess.strata(gd)
    out = rep.as_dict()
    out["kind"] = gd.kind
    out["ok"] = rep.fact_a_consistent and rep.tangent_dim >= rep.c_minus_G
    return out


def run_traverso(sess: Session) -> dict:
    lat, closed = traverso_dimension(sess.decomp(), sess.tangent())
    table, total = quasi_factor_codims(sess.decomp())
    return {
        "tangent_dimension": lat,
        "closed_form": closed,
        "per_pair": {f"{_frac(a)},{_frac(b)}": v
                     for (a, b), v in sorted(table.items())},
        "pair_sum": total,
        "ok": lat == closed == total,
    }


def run_polarized(sess: Session) -> dict:
    spec = sess.spec
    if spec.symplectic_gram is None:
        return {"ok": True, "note": "no polarization supplied"}
    lat, closed = polarized_dim(sess.decomp(), sess.split(),
                                sess.symplectic_group, sess.strata)
    return {
        "lattice_dimension": lat,
        "closed_form": closed,
        "ok": lat == closed,
    }


RUNNERS = {
    "slopes": run_slopes,
    "decompose": run_decompose,
    "ominus": run_ominus,
    "axioms": run_axioms,
    "dual": run_dual,
    "slices": run_slices,
    "connection": run_connection,
    "trivialize": run_trivialize,
    "correction": run_correction,
    "strata": run_strata,
    "traverso": run_traverso,
    "polarized": run_polarized,
}


def run(spec: ProblemSpec, analyses, seed: int = 0) -> dict:
    """Dispatch the requested analyses (deterministic order) and collect
    the report."""
    sess = Session(spec, seed=seed)
    report = {
        "problem": spec.name,
        "parameters": {"p": spec.p, "n": spec.n,
                       "precision": spec.precision,
                       "degree": spec.degree, "rank": spec.rank},
        "version": __version__,
        "seed": seed,
        "analyses": {},
    }
    ok = True
    for name in sorted(set(analyses)):
        if name not in RUNNERS:
            raise ParseError(f"unknown analysis '{name}'")
        try:
            result = RUNNERS[name](sess)
        except ParseError:
            # malformed input fails the whole run (exit code 2)
            raise
        except VerificationMismatch as exc:
            result = {"ok": False, "verification_mismatch": str(exc)}
        except DieudonneError as exc:
            result = {"ok": False,
                      "error": f"{type(exc).__name__}: {exc}"}
        report["analyses"][name] = result
        ok = ok and result.get("ok", False)
    report["all_ok"] = ok
    return report


def emit(report: dict, fmt: str = "text") -> bytes:
    """Stable rendering: canonical JSON, or a line-oriented text view."""
    if fmt == "structured":
        return (json.dumps(report, sort_keys=True, indent=1,
                           separators=(",", ": "), default=str)
                + "\n").encode()
    lines = [f"problem: {report['problem']}"]
    par = report["parameters"]
    lines.append(f"parameters: p={par['p']} n={par['n']} "
                 f"precision={par['precision']} degree={par['degree']} "
                 f"rank={par['rank']}")
    for name in sorted(report["analyses"]):
        res = report["analyses"][name]
        status = "pass" if res.get("ok") else "FAIL"
        lines.append(f"[{status}] {name}")
        for key in sorted(res):
            if key == "ok":
                continue
            lines.append(f"    {key}: {_render(res[key])}")
    lines.append(f"all_ok: {report['all_ok']}")
    return ("\n".join(lines) + "\n").encode()


def _render(v):
    if isinstance(v, dict):
        inner = ", ".join(f"{k}={_render(x)}" for k, x in sorted(v.items()))
        return "{" + inner + "}"
    if isinstance(v, list):
        return "[" + ", ".join(_render(x) for x in v) + "]"
    return str(v)
