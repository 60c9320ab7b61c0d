"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    [block] = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(block, f"{README.name} (Library quickstart)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # The certificate's line, then one row per event: the five certificate
    # events and the one deviation direction.
    assert len(lines) == 1 + 6
    assert [line.split()[-1] for line in lines[1:]] == [
        "respected", "respected", "vacuous", "vacuous", "vacuous", "vacuous"]
