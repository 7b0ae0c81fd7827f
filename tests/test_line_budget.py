"""Ratchet on the size of src/varq: the same numbers from the least code.

The count is that of ``wc -l src/varq/*.py`` (newline characters).  A change
that adds lines raises ``LIMIT`` in the same diff and says in CHANGES.md why
the lines are needed; a change that removes some lowers it.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "varq"
LIMIT = 3071


def line_count(text: str) -> int:
    """Lines as ``wc -l`` counts them: one per newline character."""
    return text.count("\n")


def test_counter_matches_wc():
    assert line_count("") == 0
    assert line_count("a\nb\n") == 2
    assert line_count("a\nb") == 1
    assert line_count("\n\n") == 2


def test_src_lines_at_most_limit():
    counts = {p.name: line_count(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    listing = "\n".join(f"  {n:5d} {name}" for name, n in counts.items())
    assert total <= LIMIT, f"{total} lines in src/varq/*.py, limit {LIMIT}:\n{listing}"
