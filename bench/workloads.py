"""The benchmark's workloads: seeded inputs and the operation run on them.

Every workload drives the library through the path the command line uses,
``parse_dict`` -> ``problems.run`` -> ``problems.emit(..., "structured")``.
Inputs come from the corpus files under ``src/dieudonne/corpus`` and from
the seed alone; the library never sees the seed except as the ``seed``
argument of ``run``.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS = SRC / "dieudonne" / "corpus"
REFERENCE = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 0
# Operation k of a run uses seed + k * OP_SEED_STRIDE: the first operation
# uses the run's seed itself, and runs at small seeds never share a draw.
OP_SEED_STRIDE = 100_000
POINT_QUERIES = 32
SMALL_ENTRIES = ("ordinary_rank2", "supersingular_rank2",
                 "elliptic_polarized", "symplectic_ordinary_c2",
                 "three_slope_rank4")
SMALL_PRECISION = 256


class Job:
    """One problem document and the analyses run on it."""

    def __init__(self, doc, analyses):
        self.doc = doc
        self.analyses = analyses

    @property
    def name(self):
        return self.doc["name"]


def _corpus(name, **overrides):
    doc = json.loads((CORPUS / f"{name}.json").read_text(encoding="utf-8"))
    doc.update(overrides)
    return doc


def _report_all(entry):
    def jobs(seed, analyses):
        return [Job(_corpus(entry), analyses)]
    return jobs


def _point_queries(seed, analyses):
    # four_slope_rank8 has a 3-variable deformation base over F_5, so its
    # residue points are the 125 triples; the seed picks 32 distinct ones.
    grid = list(itertools.product(range(5), repeat=3))
    points = random.Random(seed).sample(grid, POINT_QUERIES)
    return [Job(_corpus("four_slope_rank8", points=[list(p) for p in points]),
                analyses)]


def _small_highprec(seed, analyses):
    return [Job(_corpus(name, precision=SMALL_PRECISION), analyses)
            for name in SMALL_ENTRIES]


# name -> (job builder, analyses); None stands for problems.ANALYSES, which
# is only known once the library is imported.  Why each workload exists is
# recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "rank8_report_all": (_report_all("four_slope_rank8"), None),
    "n3_report_all": (_report_all("example_1_7"), None),
    "point_queries": (_point_queries,
                      ["connection", "trivialize", "correction"]),
    "small_highprec": (_small_highprec, None),
}

# Checked byte-for-byte at the default seed, besides the stored reference.
GOLDEN = {
    "n3_report_all": ROOT / "tests" / "golden" / "example_1_7_report.json",
}


def jobs_for(workload, seed, all_analyses):
    """The seeded jobs of a workload; ``all_analyses`` is
    ``problems.ANALYSES`` of the imported library."""
    build, analyses = WORKLOADS[workload]
    return build(seed, list(analyses or all_analyses))


def op_seed(seed, k):
    """The seed of operation k of a run at ``seed``."""
    return seed + k * OP_SEED_STRIDE


def run_op(problems, jobs, seed):
    """One operation: parse, run and emit every job; returns the bytes."""
    return [problems.emit(problems.run(problems.parse_dict(job.doc),
                                       job.analyses, seed), "structured")
            for job in jobs]


def reference_paths(workload, jobs):
    return [REFERENCE / workload / f"{job.name}.json" for job in jobs]
