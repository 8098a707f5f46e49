"""Import hygiene: no module of the library or of its tests imports a name
it never uses, only ``witt`` and ``lattices.boosted`` raise a context's
precision, no module-level function of the library, public or
private, exists only for the tests, no function of the library has a
parameter that its body never reads or takes the crystal beside the
slope data or decomposition that holds it, and every span name that the
benchmark's tracer (``bench/tracer.py``) reads names a library function,
method, ``Session`` accessor or analysis runner that its ``install``
wraps.

No linter ships with the project, so this reads each module with ``ast``.
``__init__.py`` is exempt from the unused-import check: its imports are
the public re-exports."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import dieudonne
from dieudonne import problems
from dieudonne.cli import load_corpus

SRC = pathlib.Path(dieudonne.__file__).parent
TESTS = pathlib.Path(__file__).parent


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[f"{path.parent.name}/{path.name}"] = unused
    assert found == {}


def names_used(tree):
    """Every identifier the code uses: names, attributes and imported
    names (docstrings and comments are not code)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


# the modules that may raise a context's precision: its home and
# ``lattices.boosted``, which every precision boost goes through
PRECISION_MODULES = {"witt.py", "lattices.py"}


def test_precision_moves_stay_in_the_boost_helper():
    found = sorted(
        path.name for path in SRC.glob("*.py")
        if path.name not in PRECISION_MODULES
        and "with_precision" in names_used(
            ast.parse(path.read_text(encoding="utf-8"))))
    assert found == []


def test_precision_move_is_reported():
    tree = ast.parse("big = ctx.with_precision(ctx.N + 8)\n"
                     "from .witt import with_precision as wp\n")
    assert {"with_precision", "wp"} <= names_used(tree)
    assert "with_precision" not in names_used(
        ast.parse('"""ctx.with_precision(40)"""\n# with_precision\n'))


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(d)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "b")]


# Public functions that nothing in the package calls and that stay as
# library API, each with its reason.
LIBRARY_ONLY = {
    "cayley_element": "spec feature: Cayley elements for p > 2",
    "recursion_residual": "spec feature: the connection's independent "
                          "residual check",
    "star_property_holds": "spec feature: nu(x) != 0 exactly when "
                           "phi(x) leaves End(M)",
    "slice_chain": "spec feature: the slices of slope-pair sets",
    "induced_connection_tilde": "spec feature: the connection restricted "
                                "to E + W(k)t",
    "trace_of_vectors": "defines the trace pairing; has a reference test",
}


def functions_without_caller(trees):
    """(module, name) of every module-level function, public or private,
    that no module references outside its own definition and that
    ``__init__`` does not re-export; ``trees`` maps file names to parsed
    modules.  A private helper that only the tests call is found too."""
    exported = names_used(trees["__init__.py"])
    uses = [(node, names_used(node)) for mod, tree in trees.items()
            if mod != "__init__.py" for node in tree.body]
    found = []
    for mod, tree in sorted(trees.items()):
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            used = any(fn.name in names for node, names in uses
                       if node is not fn)
            if not used and fn.name not in exported:
                found.append((mod, fn.name))
    return found


def test_every_function_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    # an entry of LIBRARY_ONLY that gains a caller, or is deleted, goes too
    found = sorted(name for _, name in functions_without_caller(trees))
    assert found == sorted(LIBRARY_ONLY)


def test_function_without_caller_is_reported():
    trees = {
        "__init__.py": ast.parse("from .a import exported\n"),
        "a.py": ast.parse("def exported(): pass\n"
                          "def lonely(): return lonely()\n"
                          "def called(): pass\n"
                          "def _private(): return _private()\n"
                          "def _helper(): pass\n"
                          "def uses(): return _helper()\n"
                          "class K:\n    def method(self): pass\n"
                          '"""lonely _private"""\n'),
        "b.py": ast.parse("from .a import called, uses\n"),
    }
    assert functions_without_caller(trees) == [("a.py", "lonely"),
                                                ("a.py", "_private")]


# Bare ``assert`` statements in the library that guard structure, not a
# numerical fact, each keyed by module and condition with its reason.
# ``python -O`` strips asserts, so a numerical fact that precision can
# break raises ``PrecisionExhausted`` instead.
STRUCTURAL_ASSERTS = {
    ("isocrystal.py", "b[-1] == R.one"):
        "poly_divmod_monic is only called with monic divisors",
    ("signs.py", "r * r == r2"):
        "the ambient of a lattice in End(M) has dimension rank^2",
    ("signs.py", "val.denominator == 1"):
        "a slope's multiplicity is a multiple of its denominator",
    ("strata.py", "n1.denominator == 1"):
        "the closed-form polarized dimension is an integer on the "
        "symmetric slope data it is called with",
}


def bare_asserts(name, tree):
    """(module, condition) of every assert statement of a module."""
    return [(name, ast.unparse(node.test)) for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_no_numerical_asserts_in_the_library():
    found = sorted(
        key for path in SRC.glob("*.py")
        for key in bare_asserts(path.name,
                                ast.parse(path.read_text(encoding="utf-8"))))
    # a listed assert that is removed or reworded leaves the list too
    assert found == sorted(STRUCTURAL_ASSERTS)


def test_bare_assert_is_reported():
    tree = ast.parse("def f(x):\n    assert x > 0, 'positive'\n"
                     "    return x\n\"\"\"assert y\"\"\"\n")
    assert bare_asserts("m.py", tree) == [("m.py", "x > 0")]


# Parameters of library functions that the body never reads, each keyed
# by module, function and parameter with its reason.
UNREAD_PARAMETERS = {
    ("matrix.py", "_IntRing.frob", "e"):
        "part of the ring interface; sigma is the identity on Z/p^N",
}


def functions(node, prefix=""):
    """(qualified name, node) of every function under ``node``, in source
    order; methods and nested functions are named with their enclosing
    class or function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            yield from functions(child, prefix + child.name + ".")
        else:
            yield from functions(child, prefix)


def parameters(fn):
    a = fn.args
    return [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
            + [a.vararg, a.kwarg] if x]


def unread_parameters(name, tree):
    """(module, function, parameter) of every parameter but self and cls
    that its function never reads; a nested function that reads it counts
    as a read.  Methods are named with their class."""
    found = []
    for qual, fn in functions(tree):
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.extend((name, qual, param) for param in parameters(fn)
                     if param not in read | {"self", "cls"})
    return found


def test_every_parameter_is_read():
    found = sorted(
        key for path in SRC.glob("*.py")
        for key in unread_parameters(
            path.name, ast.parse(path.read_text(encoding="utf-8"))))
    # a listed parameter that is read, renamed or deleted leaves the list
    assert found == sorted(UNREAD_PARAMETERS)


def test_unread_parameter_is_reported():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    b = a\n"
                     "    def g(x):\n        return d\n    return g\n"
                     "class K:\n    def m(self, y):\n        pass\n")
    assert unread_parameters("m.py", tree) == [
        ("m.py", "f", "b"), ("m.py", "f", "c"), ("m.py", "f", "e"),
        ("m.py", "f.g", "x"), ("m.py", "K.m", "y")]


# Library functions that take a ``crystal`` parameter beside a
# ``slope_data`` or ``decomp`` one, which holds it, each keyed by module
# and function with its reason.
CRYSTAL_BESIDE_HOLDER = {}


def crystal_beside_holder(name, tree):
    """(module, function) of every function with a ``crystal`` parameter
    beside a ``slope_data`` or ``decomp`` parameter, either of which
    holds the crystal.  Methods are named with their class."""
    return [(name, qual) for qual, fn in functions(tree)
            if "crystal" in parameters(fn)
            and {"slope_data", "decomp"} & set(parameters(fn))]


def test_no_crystal_beside_its_holder():
    found = sorted(
        key for path in SRC.glob("*.py")
        for key in crystal_beside_holder(
            path.name, ast.parse(path.read_text(encoding="utf-8"))))
    # a listed function that drops the parameter leaves the list too
    assert found == sorted(CRYSTAL_BESIDE_HOLDER)


def test_crystal_beside_its_holder_is_reported():
    tree = ast.parse("def f(crystal, slope_data): pass\n"
                     "def g(x, *, decomp=None, crystal=None): pass\n"
                     "def h(crystal, slope): pass\n"
                     "class K:\n"
                     "    def m(self, slope_data, crystal): pass\n"
                     "def k(slope_data):\n"
                     "    def inner(crystal): pass\n")
    assert crystal_beside_holder("m.py", tree) == [
        ("m.py", "f"), ("m.py", "g"), ("m.py", "K.m")]


# The library functions that convert entries with ``raw_col`` or
# ``raw_mat``, each keyed by module and function with its reason.  Every
# other function takes raw entries of its context and returns them: data
# is converted once, where it enters from outside, or where raw data
# computed at a boosted precision is published at the context precision
# (a move to a higher precision needs no pass: a raw int below p^N stays
# below a larger power).
RAW_CONVERSIONS = {
    ("matrix.py", "_Ring.raw_mat"): "the conversion itself, one raw_col "
                                    "per row",
    ("isocrystal.py", "FIsocrystal.from_int_matrix"):
        "input: phi's integers, at every precision at_precision moves "
        "them to",
    ("lattices.py", "invert_matrix_exact"):
        "input: the integers of a matrix at the context and at the boost; "
        "the boosted numerator published at the context precision",
    ("isocrystal.py", "_slope_split_at"):
        "precision move: projectors computed at the boost, published at "
        "the context precision",
    ("signs.py", "dual_lattice.build"):
        "precision move: a dual built at the boost, published at the "
        "context precision",
    ("deformation.py", "trivialize_at_point"):
        "precision move: u_infinity computed at the boost, published at "
        "the context precision",
    ("deformation.py", "_teichmuller_raw"):
        "input: a point's residue coordinates; the Teichmuller lift is a "
        "coefficient tuple, an int at n = 1",
    ("deformation.py", "DeformationBasis.__init__"):
        "input: a problem's deformation_basis",
    ("problems.py", "Session._lattice_e"): "input: a problem's lattice_e",
    ("problems.py", "run_axioms"): "input: a problem's lie_element_t",
    ("core.py", "hodge_splitting"): "input: a problem's hodge_f1 columns",
    ("strata.py", "group_symplectic"): "input: a problem's symplectic_gram",
    ("strata.py", "group_custom"): "input: a problem's custom group basis",
    ("core.py", "star_property_holds"):
        "library-only entry point (LIBRARY_ONLY): matrices as a caller "
        "writes them",
    ("strata.py", "cayley_element"):
        "library-only entry point (LIBRARY_ONLY): vectors as a caller "
        "writes them",
}


def own_nodes(fn):
    """The nodes of a function's body outside the functions and classes
    defined in it (a lambda or comprehension belongs to the function)."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    stack = [node for node in fn.body if not isinstance(node, scopes)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, scopes))


def raw_conversions(name, tree):
    """(module, function) of every function whose own body reads a
    ``raw_col`` or ``raw_mat`` attribute, called or not.  Methods and
    nested functions are named with their enclosing class or function."""
    return [(name, qual) for qual, fn in functions(tree)
            if any(isinstance(node, ast.Attribute)
                   and node.attr in ("raw_col", "raw_mat")
                   for node in own_nodes(fn))]


def test_raw_conversions_stay_at_the_boundary():
    found = sorted(
        key for path in SRC.glob("*.py")
        for key in raw_conversions(
            path.name, ast.parse(path.read_text(encoding="utf-8"))))
    # a listed function that stops converting leaves the list too
    assert found == sorted(RAW_CONVERSIONS)


def test_stray_raw_conversion_is_reported():
    tree = ast.parse("def f(R, x):\n    return R.raw_col(x)\n"
                     "def g(ctx, rows):\n    conv = ring(ctx).raw_mat\n"
                     "    def inner(y):\n        return conv(y)\n"
                     "    return [R.raw_col(r) for r in rows]\n"
                     "class K:\n    def m(self, R):\n"
                     "        return lambda c: R.raw_mat(c)\n"
                     "def h(R):\n    \"\"\"R.raw_col\"\"\"\n"
                     "    return R.scale\n"
                     "def raw_col(col):\n    return col\n")
    assert raw_conversions("m.py", tree) == [
        ("m.py", "f"), ("m.py", "g"), ("m.py", "K.m")]


# ---------------------------------------------------------------------------
# the benchmark's span names


def load_tracer():
    path = TESTS.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def span_target(tracer, span):
    """What ``tracer.install`` wraps under the span name, or None: a
    runner, a ``Session`` accessor, a wrapped method (``__init__`` for a
    class span) or a wrapped module-level function of the layer."""
    layer, *rest = span.split(".")
    mod = importlib.import_module(f"dieudonne.{layer}")
    if layer == "problems" and rest[0] == "analysis":
        return problems.RUNNERS.get(rest[1])
    if layer == "problems" and rest[0] == "session":
        return vars(problems.Session).get(rest[1]) \
            if rest[1] in tracer.SESSION else None
    if len(rest) == 2 or inspect.isclass(vars(mod).get(rest[0])):
        meth = rest[1] if len(rest) == 2 else "__init__"
        if (layer, rest[0], meth) not in tracer.METHODS:
            return None
        return vars(vars(mod)[rest[0]]).get(meth)
    (name,) = rest
    fn = vars(mod).get(name)
    if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
        return None
    only = tracer.ONLY.get(layer)
    wrapped = name in only if only else not name.startswith("_")
    return fn if wrapped or name in tracer.PRIVATE.get(layer, ()) else None


def test_every_traced_span_names_a_library_function():
    tracer = load_tracer()
    spans = {n for m in tracer.PER_LAYER for n in tracer.spans_read(m)}
    spans |= {f"{layer}.{name}" for layer, names in tracer.PRIVATE.items()
              for name in names}
    spans |= {f"{layer}.{cls}" if meth == "__init__" else
              f"{layer}.{cls}.{meth}" for layer, cls, meth in tracer.METHODS}
    spans |= {f"problems.session.{acc}" for acc in tracer.SESSION}
    assert "isocrystal.sandwich_map" in spans
    assert "isocrystal.block_projector" in spans
    assert sorted(s for s in spans if span_target(tracer, s) is None) == []


def test_session_accessors_fill_the_cache_keys_the_tracer_reads():
    tracer = load_tracer()
    sess = problems.Session(load_corpus("three_slope_rank4"))
    for acc, key in tracer.SESSION.items():
        getattr(sess, acc)()
        assert key in sess._cache, acc


def test_unknown_span_is_reported():
    tracer = load_tracer()
    for span in ("isocrystal.no_such_map", "isocrystal._component_bases",
                 "problems.analysis.no_such_analysis",
                 "problems.session.crystal", "lattices.Lattice.rank",
                 "witt.is_prime", "core.Carrier"):
        assert span_target(tracer, span) is None, span
    assert span_target(tracer, "core.TangentSpace") is not None
