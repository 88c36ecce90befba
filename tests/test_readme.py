"""The README's "Library usage" block runs as written, and each `print`
line prints what its comment says."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_usage_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_usage_prints_what_its_comments_say(capsys):
    block = _library_usage_block()
    want = [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.startswith("print(")]
    assert len(want) == 5 and all(want)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
