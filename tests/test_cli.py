"""Problem-file parsing, report emission, and CLI exit-code tests."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from dieudonne.cli import corpus_names, load_corpus, main
from dieudonne.errors import ParseError
from dieudonne.problems import (DEGREE_BOUND, ProblemSpec, emit, emit_spec,
                                parse_dict, parse_file, run)


MINIMAL = {
    "name": "tiny",
    "p": 2,
    "rank": 2,
    "phi_matrix": [[1, 0], [0, 2]],
    "precision": 24,
}


def test_parse_minimal():
    spec = parse_dict(dict(MINIMAL))
    assert spec.p == 2 and spec.n == 1
    assert spec.precision == 24
    assert spec.degree == 3  # default 2(p-1)+1


def test_default_degree_parses_for_large_p():
    # the degree bound never rejects the default 2(p-1)+1, nor the explicit
    # copy of it that emit-spec writes, so p itself stays uncapped; parsed
    # only, never run
    doc = dict(MINIMAL, p=1000003)
    spec = parse_dict(doc)
    assert spec.degree == 2 * (1000003 - 1) + 1 > DEGREE_BOUND
    assert parse_dict(json.loads(emit_spec(spec))) == spec


def test_parse_rejects_nonsquare_matrix():
    doc = dict(MINIMAL)
    doc["phi_matrix"] = [[1, 0, 0], [0, 2, 0]]
    with pytest.raises(ParseError) as err:
        parse_dict(doc)
    assert "phi_matrix" in str(err.value)


def test_parse_rejects_unknown_field():
    doc = dict(MINIMAL)
    doc["bogus"] = 1
    with pytest.raises(ParseError) as err:
        parse_dict(doc)
    assert "bogus" in str(err.value)


def test_parse_rejects_bad_fraction():
    doc = dict(MINIMAL)
    doc["slope_pairs"] = [["0", "one"]]
    with pytest.raises(ParseError):
        parse_dict(doc)


@pytest.mark.parametrize("field, value", [
    ("p", 4),
    ("p", True),
    ("n", True),
    ("rank", True),
    ("degree", True),
    ("phi_matrix", [[True, 0], [0, 2]]),
    ("phi_denominator", "x"),
    ("slope_pairs", 3),
    ("slope_pairs", [[True, "1/2"]]),
    ("lattice_e", 3),
    ("deformation_basis", {"v": 1}),
    ("group", {"kind": "custom", "basis": 3}),
    ("hodge_f1", {"columns": 3}),
    ("p", 2 ** 64 + 13),
    ("points", 5),
    ("points", [5]),
    ("points", [["x"]]),
    ("points", [[[1, 2]]]),
    ("slope_pairs", [["1e4000000", "1"]]),
    ("slope_pairs", [["0.5", "1"]]),
    pytest.param("degree", {"p": 5, "phi_matrix": [[1, 0], [0, 5]],
                            "degree": 3}, id="degree-below-p-minus-1"),
    ("degree", 0),
    ("precision", 1),
    pytest.param("rank", 17, id="rank-over-cap"),
    pytest.param("n", 17, id="n-over-cap"),
    pytest.param("precision", 4097, id="precision-over-cap"),
    pytest.param("degree", DEGREE_BOUND + 1, id="degree-over-cap"),
])
def test_parse_rejects_malformed_field(field, value):
    doc = dict(MINIMAL)
    if isinstance(value, dict) and field in value:
        # a field checked against another one: set both
        doc.update(value)
    else:
        doc[field] = value
    with pytest.raises(ParseError) as err:
        parse_dict(doc)
    assert f"field '{field}'" in str(err.value)


# Any JSON value: scalars, and lists and objects nesting them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(ProblemSpec.FIELDS), JSON_VALUES,
                       min_size=1, max_size=3))
def test_parse_dict_is_total(fields):
    # every document either parses or is rejected with a ParseError
    doc = dict(MINIMAL)
    doc.update(fields)
    try:
        spec = parse_dict(doc)
    except ParseError:
        return
    assert isinstance(spec, ProblemSpec)


# JSON values as above, with integers kept small enough that a parsed
# document stays cheap to analyse (large residue degrees and precisions
# are valid input, just slow).
SMALL_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=16)


@settings(max_examples=150, deadline=None)
@given(fields=st.dictionaries(st.sampled_from(ProblemSpec.FIELDS),
                              SMALL_JSON_VALUES, max_size=3),
       command=st.sampled_from(["slopes", "emit-spec"]),
       precision=st.none() | st.integers(-3, 40),
       degree=st.none() | st.integers(-3, 12))
def test_cli_exit_codes_are_total(fields, command, precision, degree):
    # whatever the document and the overrides, main returns 0, 1 or 2
    doc = dict(MINIMAL)
    doc.update(fields)
    argv = [command]
    if precision is not None:
        argv += ["--precision", str(precision)]
    if degree is not None:
        argv += ["--degree", str(degree)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + [path])
    assert code in (0, 1, 2)


def test_points_of_the_wrong_arity_are_input_errors(tmp_path, capsys):
    # three_slope_rank4 has a two-variable deformation base
    doc = json.loads(emit_spec(load_corpus("three_slope_rank4")))
    for points in ([[1, 2, 3, 4]], [[1]]):
        doc["points"] = points
        path = tmp_path / "arity.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["trivialize", str(path)]) == 2
        assert "field 'points'" in capsys.readouterr().err


@pytest.mark.parametrize("entry, pairs", [
    pytest.param("three_slope_rank4", [["1", "0"]], id="decreasing"),
    pytest.param("three_slope_rank4", [["0", "0"]], id="equal"),
    pytest.param("three_slope_rank4", [["0", "7"]], id="unknown-slope"),
    # three_slope_rank4's own pairs name 1/2, which this crystal lacks
    pytest.param("four_slope_rank8", [["0", "1/2"], ["0", "1"]],
                 id="foreign-pairs"),
])
def test_malformed_slope_pairs_are_input_errors(tmp_path, capsys, entry,
                                                pairs):
    doc = json.loads(emit_spec(load_corpus(entry)))
    doc["slope_pairs"] = pairs
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report-all", str(path)]) == 2
    assert "field 'slope_pairs'" in capsys.readouterr().err


def test_roundtrip_canonical_form(tmp_path):
    for name in corpus_names():
        spec = load_corpus(name)
        blob = emit_spec(spec)
        path = tmp_path / f"{name}.json"
        path.write_bytes(blob)
        spec2 = parse_file(str(path))
        assert spec2 == spec
        assert emit_spec(spec2) == blob


def test_corpus_has_required_entries():
    names = corpus_names()
    for needed in ("ordinary_rank2", "supersingular_rank2", "example_1_7",
                   "three_slope_rank4", "four_slope_rank8",
                   "symplectic_ordinary_c2"):
        assert needed in names


def test_report_deterministic():
    spec = load_corpus("ordinary_rank2")
    r1 = run(spec, ["slopes", "traverso"], seed=3)
    r2 = run(spec, ["slopes", "traverso"], seed=3)
    assert emit(r1, "structured") == emit(r2, "structured")
    assert emit(r1, "text") == emit(r2, "text")


def test_report_example_1_7_goldens():
    spec = load_corpus("example_1_7")
    report = run(spec, ["slopes", "ominus", "axioms", "traverso"])
    assert report["all_ok"]
    an = report["analyses"]
    assert an["slopes"]["slopes"] == [["1/3", 3], ["2/3", 3]]
    assert an["ominus"]["O_minus_rank"] == 9
    assert an["ominus"]["E_rank"] == 6
    assert an["axioms"]["ranks"]["F0(E)"] == 4
    assert an["axioms"]["axiom_i"] and an["axioms"]["axiom_ii"]
    assert an["axioms"]["axiom_iii"] and an["axioms"]["axiom_iv"]
    assert an["traverso"]["tangent_dimension"] == 3


def test_cli_exit_codes(tmp_path, capsys):
    # pass
    assert main(["slopes", "--corpus", "ordinary_rank2"]) == 0
    capsys.readouterr()
    # input errors
    assert main(["slopes", "--corpus", "no_such_entry"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["slopes", str(bad)]) == 2
    capsys.readouterr()
    nonsquare = tmp_path / "nonsquare.json"
    nonsquare.write_text(json.dumps({
        "p": 2, "rank": 2, "phi_matrix": [[1, 0, 0], [0, 2, 0]],
    }), encoding="utf-8")
    assert main(["slopes", str(nonsquare)]) == 2
    capsys.readouterr()
    composite = tmp_path / "composite.json"
    composite.write_text(json.dumps({
        "p": 4, "rank": 2, "phi_matrix": [[1, 0], [0, 4]],
    }), encoding="utf-8")
    assert main(["slopes", str(composite)]) == 2
    capsys.readouterr()
    # a degree below p - 1 (p = 5), from the file and from the override
    low = json.loads(emit_spec(load_corpus("three_slope_rank4")))
    low["degree"] = 1
    low_path = tmp_path / "low_degree.json"
    low_path.write_text(json.dumps(low), encoding="utf-8")
    assert main(["connection", str(low_path)]) == 2
    assert "field 'degree'" in capsys.readouterr().err
    assert main(["connection", "--corpus", "three_slope_rank4",
                 "--degree", "0"]) == 2
    assert "field 'degree'" in capsys.readouterr().err
    assert main(["slopes", "--corpus", "ordinary_rank2",
                 "--precision", "1"]) == 2
    assert "field 'precision'" in capsys.readouterr().err
    # above the precision bound, rejected before any computation
    assert main(["slopes", "--corpus", "ordinary_rank2",
                 "--precision", "4097"]) == 2
    assert "field 'precision'" in capsys.readouterr().err
    # above the degree bound, rejected before any computation
    assert main(["connection", "--corpus", "three_slope_rank4",
                 "--degree", str(DEGREE_BOUND + 1)]) == 2
    assert "field 'degree'" in capsys.readouterr().err
    # a valid precision too low for the sign modules: the analyses that
    # need them report the domain error, with no traceback
    assert main(["report-all", "--corpus", "example_1_7",
                 "--precision", "3"]) == 1
    captured = capsys.readouterr()
    assert "error: PrecisionExhausted" in captured.out
    assert "Traceback" not in captured.err


def test_cli_emit_spec(capsys):
    assert main(["emit-spec", "--corpus", "ordinary_rank2"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["name"] == "ordinary_rank2"
    assert doc["phi_matrix"] == [[1, 0], [0, 2]]


def test_cli_structured_format(capsys):
    code = main(["traverso", "--corpus", "ordinary_rank2",
                 "--format", "structured"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["analyses"]["traverso"]["tangent_dimension"] == 1


def test_cli_verification_failure_exit_code(tmp_path, capsys):
    # a three-slope module whose full negative lattice is not square-zero:
    # requesting the connection without a square-zero pair set must fail
    # with exit code 1 (certificate failure, not an input error)
    doc = {
        "p": 5, "rank": 4, "precision": 30, "degree": 9,
        "phi_matrix": [[1, 0, 0, 0], [0, 0, 5, 0], [0, 1, 0, 0],
                       [0, 0, 0, 5]],
        "hodge_f1": [2, 3],
    }
    path = tmp_path / "threeslope.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["connection", str(path)]) == 1
    capsys.readouterr()


def test_precision_override(capsys):
    code = main(["slopes", "--corpus", "ordinary_rank2",
                 "--precision", "20", "--format", "structured"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["precision"] == 20


def test_golden_structured_reports():
    # byte-identical structured output against checked-in golden files
    import pathlib
    golden_dir = pathlib.Path(__file__).parent / "golden"

    spec = load_corpus("ordinary_rank2")
    report = run(spec, ["traverso"])
    want = (golden_dir / "ordinary_rank2_traverso.json").read_bytes()
    assert emit(report, "structured") == want

    from dieudonne.problems import ANALYSES
    spec7 = load_corpus("example_1_7")
    report7 = run(spec7, ANALYSES)
    want7 = (golden_dir / "example_1_7_report.json").read_bytes()
    assert emit(report7, "structured") == want7
