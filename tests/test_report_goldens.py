"""Every corpus entry's ``report-all`` output, pinned byte for byte.

``tests/golden/report_all_<entry>_seed<seed>.<txt|json>`` hold the text
and structured outputs of

    python -m dieudonne.cli report-all --corpus <entry> --seed <seed> \
        --format <text|structured>

for every corpus entry at seeds 0 and 3.  Each run must exit 0, write
nothing to stderr and print exactly those bytes.  A change that means to
move a report regenerates its files with that command and says why.

The same bytes come from each entry's ``emit-spec`` output with
``hodge_f1`` dropped, run as a problem file: every corpus F^1 is
ker(phi mod p), spanned by standard vectors, which is the Hodge filtration
a problem without ``hodge_f1`` is given.
"""

import json
import pathlib

import pytest

from dieudonne.cli import corpus_names, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SUFFIX = {"text": "txt", "structured": "json"}


@pytest.mark.parametrize("fmt", sorted(SUFFIX))
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", corpus_names())
def test_report_all_is_byte_identical(name, seed, fmt, capsysbinary):
    code = main(["report-all", "--corpus", name, "--seed", str(seed),
                 "--format", fmt])
    out, err = capsysbinary.readouterr()
    assert (code, err) == (0, b"")
    want = GOLDEN / f"report_all_{name}_seed{seed}.{SUFFIX[fmt]}"
    assert out == want.read_bytes()


@pytest.mark.parametrize("name", corpus_names())
def test_report_without_hodge_f1_is_byte_identical(name, tmp_path,
                                                   capsysbinary):
    assert main(["emit-spec", "--corpus", name]) == 0
    spec = json.loads(capsysbinary.readouterr().out)
    del spec["hodge_f1"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["report-all", str(path), "--seed", "0",
                 "--format", "structured"])
    out, err = capsysbinary.readouterr()
    assert (code, err) == (0, b"")
    assert out == (GOLDEN / f"report_all_{name}_seed0.json").read_bytes()
