"""Output checks and the failure tally behind ``fail_ratio``.

At the default seed every report must equal the stored reference byte for
byte.  At any other seed the trivialization points are drawn from the
seed, so ``seed`` and the trivialization ``results`` and ``points`` are
left out of the comparison and every other field must still match.  Every
report must have ``all_ok`` true.
"""

from __future__ import annotations

import copy
import json

from workloads import DEFAULT_SEED

SEED_DRAWN = ("results", "points")


def _seed_free(report):
    doc = copy.deepcopy(report)
    doc.pop("seed", None)
    triv = doc.get("analyses", {}).get("trivialize")
    if isinstance(triv, dict):
        for key in SEED_DRAWN:
            triv.pop(key, None)
    return doc


def cert_loss(report):
    """Largest N - verified modulus over the trivialization and
    horizontality certificates of one report (0 when it has none)."""
    N = report["parameters"]["precision"]
    analyses = report["analyses"]
    moduli = [res["verified_modulus"]
              for res in analyses.get("trivialize", {}).get("results", [])]
    hor = analyses.get("connection", {}).get("horizontality")
    if isinstance(hor, dict):
        moduli.append(hor["certified_modulus"])
    return max((N - m for m in moduli), default=0)


class Checker:
    """Compares each operation's reports with the reference and counts
    attempted and failed operations."""

    def __init__(self, references, golden=None):
        self.references = references
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.cert_loss_max = 0

    def errors(self, seed, outputs):
        if len(outputs) != len(self.references):
            return [f"{len(outputs)} reports for "
                    f"{len(self.references)} references"]
        errs = []
        exact = seed == DEFAULT_SEED
        for i, (out, ref) in enumerate(zip(outputs, self.references)):
            report = json.loads(out)
            self.cert_loss_max = max(self.cert_loss_max, cert_loss(report))
            if report.get("all_ok") is not True:
                errs.append(f"report {i}: all_ok is not true")
            if exact:
                if out != ref:
                    errs.append(f"report {i}: bytes differ from the "
                                "reference")
            elif _seed_free(report) != _seed_free(json.loads(ref)):
                errs.append(f"report {i}: differs from the reference "
                            "outside the seed-drawn fields")
        if exact and self.golden is not None and outputs[0] != self.golden:
            errs.append("report 0: bytes differ from the golden report")
        return errs

    def record(self, seed, outputs=None, exc=None, expected=None):
        """Count one operation at ``seed``; it fails when it raised, when
        its reports do not check, or when they differ from ``expected``
        (the untraced reports, for a traced operation).  Returns the
        reasons it failed."""
        self.attempted += 1
        if exc is not None:
            errs = [f"raised {exc!r}"]
        else:
            errs = self.errors(seed, outputs)
            if expected is not None and outputs != expected:
                errs.append("reports differ from the untraced run")
        if errs:
            self.failed += 1
        return errs

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0
