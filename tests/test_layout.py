from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "srgcert"

# ROADMAP item 6's budget; an independent verify.py is counted on its own
SRC_LINE_BUDGET = 1789


def test_src_stays_within_line_budget():
    sources = [p for p in SRC.glob("*.py") if p.name != "verify.py"]
    assert len(sources) >= 8
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources)
    assert lines <= SRC_LINE_BUDGET, f"src/srgcert has {lines} lines, budget {SRC_LINE_BUDGET}"
