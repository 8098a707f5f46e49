"""Every corpus entry's ``report-all`` output, pinned byte for byte.

``tests/golden/report_all_<entry>_seed<seed>.<txt|json>`` hold the text
and structured outputs of

    python -m dieudonne.cli report-all --corpus <entry> --seed <seed> \
        --format <text|structured>

for every corpus entry at seeds 0 and 3.  Each run must exit 0, write
nothing to stderr and print exactly those bytes.  A change that means to
move a report regenerates its files with that command and says why.
"""

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
