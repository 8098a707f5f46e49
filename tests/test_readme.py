"""The README's "Library use" block runs as written: each line that
prints shows what its trailing comment says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_prints_its_comments():
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    wants = [line.split("#", 1)[1].strip() for line in code.splitlines()
             if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert len(wants) == 2
    assert out.getvalue().splitlines() == wants
