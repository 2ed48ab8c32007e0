"""The README's code snippets run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block under the README's ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_library_use_snippet_runs(capsys):
    exec(compile(_python_block("Library use"), str(README), "exec"), {})
    bound, exact, variance, std_error = map(float, capsys.readouterr().out.split())
    # the snippet's own claim: the exact variance is within a few Monte
    # Carlo errors of the estimate, and the envelope bound certifies its order
    assert abs(variance - exact) <= 6.0 * std_error
    assert exact <= 3.0 * bound
