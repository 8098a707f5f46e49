"""Benchmark of the dieudonne library, driven through its public path.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench/run.py --workload all

One process, one thread, closed loop: each operation starts when the
previous one has returned, and no operation starts once the elapsed time
plus the mean time per operation so far would pass ``--seconds`` (the first
always runs).  Each operation draws fresh inputs from a seed derived from
``--seed``, so a run's median spans several draws.  Every operation's
reports are checked against the stored reference.  Times are rescaled by
the speed of a reference kernel sampled while they run (calibrate.py);
the plain wall time is printed beside them.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` half the time runs untraced and half
traced, the spans go to ``.bench_trace/`` and the JSON holds the per-layer
metrics.  ``--workload all`` runs every workload in its own process, so that
each gets its own peak memory figure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import NOMINAL_S, SpeedProbe
from checker import Checker
from tracer import Tracer, unit
from workloads import (DEFAULT_SEED, GOLDEN, ROOT, SRC, WORKLOADS, jobs_for,
                       op_seed, reference_paths, run_op)

# End-to-end metrics and their units, reported with --trace 0.
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "cert_loss_max": "digits"}
# Set-up runs this many times (each a fresh import); its median is setup_s.
SETUP_REPEATS = 9
TRACE_DIR = ROOT / ".bench_trace"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def fresh_import():
    """Import dieudonne from this checkout's sources, dropping any module
    an earlier set-up imported."""
    if not (SRC / "dieudonne" / "__init__.py").is_file():
        raise BenchError(f"no dieudonne sources under {SRC}")
    for name in [m for m in sys.modules
                 if m == "dieudonne" or m.startswith("dieudonne.")]:
        del sys.modules[name]
    problems = importlib.import_module("dieudonne.problems")
    if SRC not in Path(problems.__file__).resolve().parents:
        raise BenchError(f"imported dieudonne from {problems.__file__}, "
                         f"not from {SRC}")
    return problems, importlib.import_module("dieudonne.witt")


def setup(workload, seed):
    """Import the library, build and parse the seeded problems and their
    Witt contexts.  Returns the problems module and the jobs."""
    problems, witt = fresh_import()
    jobs = jobs_for(workload, seed, problems.ANALYSES)
    for job in jobs:
        spec = problems.parse_dict(job.doc)
        witt.make_context(spec.p, spec.n, spec.precision)
    return problems, jobs


def load_references(workload, jobs):
    paths = reference_paths(workload, jobs)
    if workload in GOLDEN:
        paths.append(GOLDEN[workload])
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise BenchError("missing reference files: " + ", ".join(missing))
    refs = [p.read_bytes() for p in paths]
    if workload in GOLDEN:
        return refs[:-1], refs[-1]
    return refs, None


def closed_loop(problems, workload, seed, checker, seconds, probe,
                tracer=None, expected=()):
    """Run operations until the budget is spent; operation k draws its
    inputs from ``op_seed(seed, k)``.  Returns each operation's wall time,
    its rescaled time and its reports.  ``expected`` holds reports that
    the operations must reproduce byte for byte, in order."""
    walls, rescaled, outputs = [], [], []
    start = time.perf_counter()
    for k in itertools.count():
        k_seed = op_seed(seed, k)
        jobs = jobs_for(workload, k_seed, problems.ANALYSES)
        gc.collect()
        if tracer is not None:
            tracer.begin_op()
        out, exc = None, None
        mark = probe.start()
        try:
            out = run_op(problems, jobs, k_seed)
        except Exception as e:  # counted as a failed operation
            exc = e
            traceback.print_exc()
        wall, scaled = probe.stop(mark)
        walls.append(wall)
        rescaled.append(scaled)
        outputs.append(out)
        same_as = expected[k] if k < len(expected) else None
        for err in checker.record(k_seed, out, exc, expected=same_as):
            print(f"op {checker.attempted} failed: {err}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed * (k + 2) / (k + 1) > seconds:
            return walls, rescaled, outputs


def bench(workload, seed, seconds, trace):
    with SpeedProbe() as probe:
        return measure(workload, seed, seconds, trace, probe)


def measure(workload, seed, seconds, trace, probe):
    setups = []
    for _ in range(SETUP_REPEATS):
        mark = probe.start()
        problems, jobs = setup(workload, seed)
        setups.append(probe.stop(mark)[1])
    refs, golden = load_references(workload, jobs)
    checker = Checker(refs, golden)
    budget = seconds / 2 if trace else seconds
    walls, times, outputs = closed_loop(problems, workload, seed, checker,
                                        budget, probe)
    lines = [f"workload {workload} seed {seed}: {len(times)} untraced ops, "
             f"median wall time {statistics.median(walls):.4g} s"]
    if not trace:
        values = {
            "op_s": statistics.median(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF)
            .ru_maxrss / 1024,
            "cert_loss_max": checker.cert_loss_max,
        }
        metrics = {m: (values[m], u) for m, u in END_TO_END.items()}
        lines.append(f"op_s is the median of {len(times)} ops and setup_s "
                     f"of {SETUP_REPEATS} set-ups, rescaled to the speed "
                     f"where a reference-kernel slice takes {NOMINAL_S} s")
    else:
        tracer = Tracer().install()
        try:
            _, traced, _ = closed_loop(problems, workload, seed, checker,
                                       budget, probe, tracer=tracer,
                                       expected=outputs)
        finally:
            tracer.uninstall()
        ratio = statistics.median(traced) / statistics.median(times)
        metrics = {m: (v, unit(m)) for m, v in tracer.metrics(ratio).items()}
        path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
        tracer.write(path, {"workload": workload, "seed": seed,
                            "ops": tracer.op})
        lines.append(f"{len(traced)} traced ops; {len(tracer.spans)} spans "
                     f"written to {path.relative_to(ROOT)}")
    lines.append(f"fail_ratio {checker.fail_ratio:g} "
                 f"({checker.failed}/{checker.attempted})")
    for name, (value, u) in metrics.items():
        lines.append(f"{name} {value:.6g} {u}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": u}
                    for name, (value, u) in metrics.items()},
    }
    return lines, result


def run_all(args):
    """Every workload in a child process of its own."""
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        lines, result = bench(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
