"""Which functions of the library the command line never runs.

A ``sys.settrace`` line census of ``src/dieudonne`` while ``report-all``
runs on the seven corpus entries (seeds 0 and 3, text and structured
output), once more on ``ordinary_rank2`` with the --precision and --degree
overrides, and on three problem files: ``three_slope_rank4`` without its
``hodge_f1``, the same entry with a ``custom`` group whose Lie lattice is
spanned by the r^2 elementary matrices, and ``rank8_conj``; ``emit-spec``
runs on ``three_slope_rank4``.  Each run goes through ``cli.main``.  A
function has run when one of its own statements has (those of a nested
function count for that function only).  The set of
functions that never ran must equal ``NEVER_RUN``, each entry with its
reason: code that the command line does not reach is either reached by a
new input, given a reason here, or deleted.

It takes about 12 s on a 2-core virtual machine, so the file name keeps
it out of the default test collection; run it by path, with the census
printed:

    python3 tests/census.py

or as a test:

    python3 -m pytest -q tests/census.py
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dieudonne"
sys.path.insert(0, str(SRC.parent))
sys.path.insert(0, str(TESTS))

from dieudonne import cli  # noqa: E402

from instances import rank8_conj  # noqa: E402

SPEC_FEATURE = "spec feature, a library call only: "
CAYLEY = "only under strata.cayley_element (series matrices)"
DISPLAY = "debugging display"

# qualified name -> why report-all on the corpus never runs it
NEVER_RUN = {
    "cli.corpus_names": "`corpus-list` and the message of an unknown entry",
    "core.HodgeSplitting.mu_numerator": "only under core.sigma_phi",
    "core.TangentSpace.nu_is_zero": "only under core.star_property_holds",
    "core.sigma_phi": SPEC_FEATURE + "the unit-part factorization of the "
                                     "Frobenius",
    "core.star_property_holds": SPEC_FEATURE + "nu(x) != 0 exactly when "
                                               "phi(x) leaves End(M)",
    "deformation.induced_connection_tilde": SPEC_FEATURE + "the connection "
                                            "restricted to E + W(k)t",
    "deformation.induced_connection_tilde.bracket":
        "only under deformation.induced_connection_tilde",
    "deformation.recursion_residual": SPEC_FEATURE + "the connection's "
                                      "independent residual check",
    "isocrystal.FIsocrystal.__repr__": DISPLAY,
    "lattices.Lattice.__repr__": DISPLAY,
    "lattices.Lattice.with_loss": "normalized() of an empty lattice that "
                                  "carries a loss",
    "lattices.SemilinearMap.__repr__": DISPLAY,
    "lattices.SemilinearMap.ncols": "only under SemilinearMap.__repr__",
    "lattices.SemilinearMap.reduce_denominator": "only under core.sigma_phi",
    "matrix._EntryRing.__init__": CAYLEY,
    "matrix._EntryRing.is_zero": CAYLEY,
    "matrix._EntryRing.vec_mat": CAYLEY,
    "matrix._Ring.nilpotent_inverse": "only under strata.cayley_element",
    "problems.ProblemSpec.__eq__": "spec comparison, for library callers "
                                   "and tests",
    "problems.ProblemSpec.__repr__": DISPLAY,
    "series.TruncatedSeries.__eq__": "series equality, for library callers "
                                     "and tests; the library tests is_zero",
    "series.TruncatedSeries.__hash__": "refuses hashing, the other half of "
                                       "__eq__",
    "series.TruncatedSeries.__neg__": "unary minus of the series algebra, "
                                      "for library callers and tests",
    "series.TruncatedSeries._pack": "a series built from a coefficient "
                                    "table, and coefficient(): " + CAYLEY,
    "series.TruncatedSeries.coefficient": CAYLEY,
    "series.TruncatedSeries.is_zero_through": CAYLEY,
    "series.linear_matrix": CAYLEY,
    "signs.SlopePairSet.__repr__": DISPLAY,
    "signs.slice_chain": SPEC_FEATURE + "the slices of slope-pair sets",
    "signs.trace_of_vectors": "defines the trace pairing; has a reference "
                              "test",
    "strata.cayley_element": SPEC_FEATURE + "Cayley elements for p > 2",
}


def functions(path):
    """{qualified name: the lines of its own statements} for every
    function and method of one module."""
    out = {}
    module = path.stem

    def own_lines(node):
        lines = set()
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        stack = list(body)
        while stack:
            stmt = stack.pop()
            lines.add(stmt.lineno)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)
        return lines

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                out[name] = own_lines(child)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.stmt):
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return out


def runs():
    """The argument lists of ``cli.main`` for the corpus: report-all on
    each entry, at both seeds and in both formats, report-all with the
    overrides, and emit-spec."""
    for name in cli.corpus_names():
        for seed in ("0", "3"):
            for fmt in ("text", "structured"):
                yield ["report-all", "--corpus", name, "--seed", seed,
                       "--format", fmt]
    yield ["report-all", "--corpus", "ordinary_rank2", "--precision", "20",
           "--degree", "6"]
    yield ["emit-spec", "--corpus", "three_slope_rank4"]


def problem_files():
    """(file name, problem document) of the runs through a problem file;
    ``rank8_conj`` comes last."""
    doc = json.loads((SRC / "corpus" / "three_slope_rank4.json")
                     .read_text(encoding="utf-8"))
    no_hodge = dict(doc)
    del no_hodge["hodge_f1"]
    r = doc["rank"]
    custom = dict(doc, group={"kind": "custom", "basis": [
        [[int((a, b) == (i, j)) for b in range(r)] for a in range(r)]
        for i in range(r) for j in range(r)]})
    return [("no_hodge_f1", no_hodge), ("custom_group", custom),
            ("rank8_conj", rank8_conj())]


def executed_lines():
    """{file name: executed line numbers} of the library modules, and the
    exit codes of the runs."""
    seen = {}
    src = str(SRC)
    tracers = {}

    def tracer_for(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(src):
            return None
        if path not in tracers:
            tracers[path] = tracer_for(
                seen.setdefault(Path(path).name, set()))
        return tracers[path]

    argvs = list(runs())
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in problem_files():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argvs.append(["report-all", str(path)])
        codes = []
        out = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(out):
            sys.settrace(trace)
            try:
                codes = [cli.main(argv) for argv in argvs]
            finally:
                sys.settrace(None)
    return seen, codes


def census():
    """(never-run function names, exit codes, {name: own line count})."""
    seen, codes = executed_lines()
    never, sizes = [], {}
    for path in sorted(SRC.glob("*.py")):
        ran = seen.get(path.name, set())
        for name, lines in functions(path).items():
            if lines and not lines & ran:
                never.append(name)
                sizes[name] = len(lines)
    return sorted(never), codes, sizes


def test_never_run_functions_are_the_allowlist():
    never, codes, _ = census()
    # every corpus entry passes; rank8_conj (the last run) still fails
    # axioms, connection and trivialize, so it may exit 1 but never 2
    assert codes[:-1] == [0] * (len(codes) - 1)
    assert codes[-1] in (0, 1)
    assert never == sorted(NEVER_RUN)


if __name__ == "__main__":
    never, codes, sizes = census()
    print(f"{len(codes)} runs, exit codes {sorted(set(codes))}")
    for name in never:
        print(f"{name:50s} {sizes[name]:4d} statements  "
              f"{NEVER_RUN.get(name, 'NOT IN THE ALLOWLIST')}")
    for name in sorted(set(NEVER_RUN) - set(never)):
        print(f"{name:50s} ran, but is in the allowlist")
    sys.exit(0 if never == sorted(NEVER_RUN) else 1)
