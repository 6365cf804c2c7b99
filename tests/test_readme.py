"""Every ``python`` block of README.md runs as written, so the documented
library calls cannot drift from the package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("number", range(1, len(BLOCKS) + 1))
def test_block_runs(number, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[number - 1], f"README.md python block {number}", "exec"), {})
    assert capsys.readouterr().out
