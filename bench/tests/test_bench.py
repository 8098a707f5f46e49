"""Fast checks of the benchmark itself: the output checker must count a
wrong report as a failure, BENCHMARK.json must name what the code reports,
and the tracer must leave a report's bytes alone."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from checker import Checker, cert_loss  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import ANALYSES, PER_LAYER, Tracer, unit  # noqa: E402
from workloads import (DEFAULT_SEED, GOLDEN, WORKLOADS, jobs_for,  # noqa: E402
                       reference_paths)

OTHER_SEED = 7


def references(workload):
    jobs = jobs_for(workload, DEFAULT_SEED, ANALYSES)
    return [p.read_bytes() for p in reference_paths(workload, jobs)]


def emit(report):
    # the canonical structured form that problems.emit writes
    return (json.dumps(report, sort_keys=True, indent=1,
                       separators=(",", ": ")) + "\n").encode()


def edited(ref, edit, seed=DEFAULT_SEED):
    report = json.loads(ref)
    report["seed"] = seed
    edit(report)
    return emit(report)


def alter_field(report):
    report["analyses"]["slopes"]["isoclinic"] = \
        not report["analyses"]["slopes"]["isoclinic"]


def clear_all_ok(report):
    report["all_ok"] = False


def redraw_points(report):
    for res in report["analyses"]["trivialize"]["results"]:
        res["steps"] += 1


def test_references_round_trip():
    for workload in WORKLOADS:
        for ref in references(workload):
            assert emit(json.loads(ref)) == ref


def test_altered_field_and_all_ok_false_count_as_failures():
    refs = references("small_highprec")
    for seed in (DEFAULT_SEED, OTHER_SEED):
        checker = Checker(refs)
        same = [edited(r, lambda rep: None, seed) for r in refs]
        assert checker.record(seed, same) == []
        wrong = list(same)
        wrong[2] = edited(refs[2], alter_field, seed)
        assert checker.record(seed, wrong)
        not_ok = list(same)
        not_ok[4] = edited(refs[4], clear_all_ok, seed)
        assert checker.record(seed, not_ok)
        assert checker.record(seed, exc=RuntimeError("boom"))
        assert (checker.attempted, checker.failed) == (4, 3)
        assert checker.fail_ratio == 0.75


def test_seed_drawn_fields_are_free_only_off_the_default_seed():
    refs = references("rank8_report_all")
    assert Checker(refs).record(DEFAULT_SEED,
                                [edited(refs[0], redraw_points)])
    assert Checker(refs).record(
        OTHER_SEED, [edited(refs[0], redraw_points, OTHER_SEED)]) == []


def test_golden_report_is_checked_at_the_default_seed():
    refs = references("n3_report_all")
    golden = GOLDEN["n3_report_all"].read_bytes()
    assert refs == [golden]
    checker = Checker(refs, golden=golden + b" ")
    assert checker.record(DEFAULT_SEED, refs)


def test_traced_reports_must_equal_untraced():
    refs = references("small_highprec")
    checker = Checker(refs)
    assert checker.record(DEFAULT_SEED, refs, expected=refs) == []
    assert checker.record(DEFAULT_SEED, refs, expected=refs[::-1])


def test_cert_loss_reads_both_certificates():
    report = json.loads(references("point_queries")[0])
    assert cert_loss(report) == 1
    report["analyses"]["trivialize"]["results"][5]["verified_modulus"] = 40
    assert cert_loss(report) == 8
    report["analyses"]["connection"]["horizontality"][
        "certified_modulus"] = 30
    assert cert_loss(report) == 18


def test_benchmark_json_names_what_the_code_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(m, unit(m)) for m in PER_LAYER]


def test_tracer_is_transparent_and_restores_the_library():
    from dieudonne import core, problems, signs
    assert tuple(problems.ANALYSES) == ANALYSES
    original = core.largest_sub_dieudonne
    spec = problems.parse_dict(json.loads(
        (BENCH.parent / "src" / "dieudonne" / "corpus" /
         "ordinary_rank2.json").read_text()))
    untraced = problems.emit(problems.run(spec, ["ominus", "slices"]),
                             "structured")
    tracer = Tracer().install()
    try:
        assert signs.largest_sub_dieudonne is core.largest_sub_dieudonne \
            is not original
        tracer.begin_op()
        traced = problems.emit(problems.run(spec, ["ominus", "slices"]),
                               "structured")
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert signs.largest_sub_dieudonne is original
    lattice_cls = sys.modules["dieudonne.lattices"].Lattice
    assert isinstance(vars(lattice_cls)["from_columns"], staticmethod)
    stats = tracer.stats()
    assert stats["core.largest_sub_dieudonne"]["calls"] > 0
    assert stats["problems.analysis.ominus"]["calls"] == 1
