"""Raw entries below the parse layer, converted once where data enters.

The lattice and map constructors and the matrix entry points
(``Lattice.from_columns``, ``Lattice.contains_vector``,
``SemilinearMap``, ``invert_matrix``, ``matrix_kernel``,
``smith_valuations``) take raw entries of their context only: an int in
[0, p^N) when n = 1, a length-n tuple of such ints when n > 1.  Outside
data is converted once, where it enters (the problem fields, the integers
of a crystal at each precision), and data computed at a boosted precision
is reduced where it is published at the context precision.

- The oracle wraps the six entry points with a checker of that contract
  and runs ``report-all`` on the corpus, ``rank8_conj``,
  ``non_split_rank6`` and a custom-group document, and the two duals of
  ``rank8_conj`` at a precision that makes ``dual_lattice`` boost: a
  conversion that was missed, or a precision move that was not reduced,
  shows as an entry out of range or of the wrong form.
- The boundary test writes the entries of a problem document as other
  representatives (negative ints, ints >= p^N, coefficient arrays at
  n > 1) and requires ``report-all`` output byte-identical to the same
  document with reduced entries.  The integers of ``phi_matrix`` are the
  exact matrix of the crystal, read again at every boosted precision, so
  only their form changes there (an int written as a coefficient array);
  every other field is read modulo p^N and takes any representative.
"""

import importlib
import json
import random
from importlib import resources

import pytest

from dieudonne import lattices, signs
from dieudonne.cli import corpus_names
from dieudonne.problems import ANALYSES, Session, emit, parse_dict, run
from dieudonne.witt import make_context

from instances import non_split_rank6, rank8_conj


def corpus_doc(name):
    path = resources.files("dieudonne") / "corpus" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def custom_group_doc():
    """``three_slope_rank4`` with a custom group whose Lie lattice is
    spanned by the r^2 elementary matrices, one of them negated."""
    doc = corpus_doc("three_slope_rank4")
    r = doc["rank"]
    basis = [[[int((a, b) == (i, j)) for b in range(r)] for a in range(r)]
             for i in range(r) for j in range(r)]
    basis[0][0][0] = -1
    return dict(doc, name="custom_group",
                group={"kind": "custom", "basis": basis})


def non_split_rank6_doc():
    X = non_split_rank6(make_context(2, 1, 32))
    return {"name": "non_split_rank6", "p": 2, "n": 1, "precision": 32,
            "degree": 9, "rank": 6,
            "phi_matrix": [list(row) for row in X.source]}


DOCS = {name: (lambda name=name: corpus_doc(name))
        for name in corpus_names()}
DOCS["rank8_conj"] = rank8_conj
DOCS["non_split_rank6"] = non_split_rank6_doc
DOCS["custom_group"] = custom_group_doc


# ---------------------------------------------------------------------------
# the raw-contract oracle


def is_raw(ctx, x):
    if ctx.n == 1:
        return type(x) is int and 0 <= x < ctx.pN
    return (type(x) is tuple and len(x) == ctx.n
            and all(type(c) is int and 0 <= c < ctx.pN for c in x))


class NotRaw(AssertionError):
    """An entry point received an entry that is not raw."""


class Contract:
    """Wraps the six entry points with the checker: ``calls`` counts each
    one's calls, and an entry that breaks the contract raises ``NotRaw``
    (no library code catches an AssertionError)."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(
            ["from_columns", "contains_vector", "SemilinearMap",
             "invert_matrix", "matrix_kernel", "smith_valuations"], 0)
        modules = [importlib.import_module(f"dieudonne.{m}") for m in
                   ("lattices", "core", "isocrystal", "signs", "strata",
                    "deformation", "problems")]
        for name in ("invert_matrix", "matrix_kernel", "smith_valuations"):
            real = getattr(lattices, name)
            wrapped = self._function(name, real)
            for mod in modules:
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, wrapped)
        L = lattices.Lattice
        from_columns = L.from_columns
        contains_vector = L.contains_vector
        map_init = lattices.SemilinearMap.__init__

        def checked_from_columns(ctx, ambient, columns, *args, **kw):
            self.check("from_columns", ctx, columns)
            return from_columns(ctx, ambient, columns, *args, **kw)

        def checked_contains_vector(lattice, vector, *args, **kw):
            self.check("contains_vector", lattice.ctx, [vector])
            return contains_vector(lattice, vector, *args, **kw)

        def checked_init(f, ctx, rows, *args, **kw):
            self.check("SemilinearMap", ctx, rows)
            map_init(f, ctx, rows, *args, **kw)

        monkeypatch.setattr(L, "from_columns",
                            staticmethod(checked_from_columns))
        monkeypatch.setattr(L, "contains_vector", checked_contains_vector)
        monkeypatch.setattr(lattices.SemilinearMap, "__init__", checked_init)

    def _function(self, name, real):
        def checked(ctx, rows, *args, **kw):
            self.check(name, ctx, rows)
            return real(ctx, rows, *args, **kw)
        return checked

    def check(self, name, ctx, rows):
        self.calls[name] += 1
        for row in rows:
            for x in row:
                if not is_raw(ctx, x):
                    raise NotRaw(f"{name} received {x!r} at p = {ctx.p}, "
                                 f"n = {ctx.n}, N = {ctx.N}")


def test_the_checker_reports_an_entry_that_is_not_raw(monkeypatch):
    contract = Contract(monkeypatch)
    ctx, wide = make_context(5, 1, 8), make_context(5, 1, 16)
    L = lattices.Lattice.from_columns(ctx, 2, [[1, 0], [0, 5]])
    assert L.contains_vector([0, 25])
    lattices.invert_matrix(ctx, [[1, 0], [0, 5 ** 8 - 1]])
    # an int of another precision, a negative int, a coefficient array
    for bad in (5 ** 8, -1, [1]):
        with pytest.raises(NotRaw):
            lattices.Lattice.from_columns(ctx, 2, [[1, 0], [0, bad]])
        with pytest.raises(NotRaw):
            L.contains_vector([bad, 0])
        with pytest.raises(NotRaw):
            lattices.SemilinearMap(ctx, [[bad]])
        with pytest.raises(NotRaw):
            lattices.invert_matrix(ctx, [[bad]])
    with pytest.raises(NotRaw):
        lattices.matrix_kernel(wide, [[1], [5 ** 16]], 16)
    tuples = make_context(2, 3, 8)
    for bad in ((1, 0), (1, 0, 2 ** 8), 1):
        with pytest.raises(NotRaw):
            lattices.smith_valuations(tuples, [[(1, 0, 0)], [bad]])
    assert all(contract.calls.values()), contract.calls


@pytest.mark.parametrize("name", sorted(DOCS))
def test_report_all_passes_raw_entries_only(monkeypatch, name):
    contract = Contract(monkeypatch)
    run(parse_dict(DOCS[name]()), ANALYSES, 0)
    assert contract.calls["from_columns"] and contract.calls["SemilinearMap"]


def test_the_oracle_reaches_every_entry_point(monkeypatch):
    contract = Contract(monkeypatch)
    for make in DOCS.values():
        run(parse_dict(make()), ANALYSES, 0)
    assert all(contract.calls.values()), contract.calls


def test_a_boosted_dual_is_published_raw(monkeypatch):
    # rank8_conj at N = 6: both duals of the sign lattices are built at a
    # boost, and their bases there have digits at and above p^6
    D = Session(parse_dict(dict(rank8_conj(), precision=6))).decomp()
    boosts = []
    real = signs.boosted

    def recorded(ctx, extras, attempt):
        boosts.append(extras)
        return real(ctx, extras, attempt)

    monkeypatch.setattr(signs, "boosted", recorded)
    Contract(monkeypatch)
    for L, reference in ((D.V_minus, D.V_plus), (D.V_plus, D.V_minus)):
        assert signs.dual_lattice(L, reference).ctx is L.ctx
    assert len(boosts) == 2


# ---------------------------------------------------------------------------
# the boundary


def rewrite(doc, entry, phi_entry):
    """The document with ``entry`` applied to every matrix entry read
    modulo p^N, and ``phi_entry`` to those of ``phi_matrix``."""
    doc = json.loads(json.dumps(doc))

    def mat(m, f=entry):
        return [[f(e) for e in row] for row in m]

    doc["phi_matrix"] = mat(doc["phi_matrix"], phi_entry)
    for field in ("lattice_e", "deformation_basis"):
        if field in doc:
            doc[field] = [mat(m) for m in doc[field]]
    if "symplectic_gram" in doc:
        doc["symplectic_gram"] = mat(doc["symplectic_gram"])
    if "lie_element_t" in doc:
        doc["lie_element_t"]["matrix"] = mat(doc["lie_element_t"]["matrix"])
    if isinstance(doc.get("hodge_f1"), dict):
        doc["hodge_f1"]["columns"] = mat(doc["hodge_f1"]["columns"])
    if doc.get("group", {}).get("kind") == "custom":
        doc["group"]["basis"] = [mat(m) for m in doc["group"]["basis"]]
    return doc


@pytest.mark.parametrize("name", sorted(set(DOCS) - {"non_split_rank6"}))
def test_any_representative_gives_the_same_report(name):
    doc = DOCS[name]()
    p, n = doc["p"], doc.get("n", 1)
    pN = p ** doc.get("precision", 40)
    rng = random.Random(len(name))

    def reduced(e):
        return e % pN if isinstance(e, int) else [c % pN for c in e]

    def as_array(e):
        # the same integer as a coefficient array, zero-padded or not
        if n > 1 and isinstance(e, int):
            return [e] + [0] * rng.randrange(n)
        return e

    def shifted(e):
        # another representative, negative or >= p^N, in either form
        if isinstance(e, int):
            return as_array(e % pN + rng.choice((-2, -1, 1, 2)) * pN)
        return [c % pN + rng.choice((-2, -1, 1, 2)) * pN for c in e]

    want = emit(run(parse_dict(rewrite(doc, reduced, lambda e: e)),
                    ANALYSES, 0))
    got = emit(run(parse_dict(rewrite(doc, shifted, as_array)), ANALYSES, 0))
    assert got == want
