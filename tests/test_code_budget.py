"""The size of ``src/revsynth`` is checked by the suite, not recounted by hand."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "revsynth"

# ROADMAP.md, north-star aim 2: "Success means `src/` shrinks from ~2,160 lines,
# and then stays at most 1,991 lines ... while outputs stay byte-identical."
MAX_SRC_LINES = 1991


def test_src_stays_within_its_line_budget():
    counts = {
        path.name: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert sum(counts.values()) <= MAX_SRC_LINES, counts
