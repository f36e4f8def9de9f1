"""Doc references in the code must not go stale.

A reference to a top-level Markdown file must name one that exists.  Scope:
``src/``, ``examples/``, ``benchmarks/`` and the top-level ``*.md``
documents.  ``perf/`` keeps its own README and is left out.  A reference is
a bare ``NAME.md``; ``perf/README.md`` or ``skills/verify/SKILL.md`` name a
path, not a top-level file.

A ROADMAP item is cited by its title, never by its number: items are
renumbered whenever the ROADMAP is re-anchored.  Scope: ``src/``,
``tests/``, ``examples/`` and ``benchmarks/``.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Plans and history name files that are gone or still to be written.
NARRATIVE = {"ISSUE.md", "REVIEW.md", "ROADMAP.md", "CHANGES.md"}
BARE_MARKDOWN_NAME = re.compile(r"(?<![\w/.-])([A-Za-z_][\w-]*\.md)\b")
#: "ROADMAP", then "item" or "items" and a digit, also across a line break.
NUMBERED_ROADMAP_ITEM = re.compile(r"ROADMAP\s+items?\s+\d")


def documents():
    for directory in ("src", "examples", "benchmarks"):
        for path in sorted((ROOT / directory).rglob("*")):
            if path.suffix in (".py", ".md"):
                yield path
    for path in sorted(ROOT.glob("*.md")):
        if path.name not in NARRATIVE:
            yield path


def test_every_referenced_top_level_markdown_file_exists():
    scanned, dangling = 0, []
    for path in documents():
        scanned += 1
        for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            for name in BARE_MARKDOWN_NAME.findall(line):
                if not (ROOT / name).is_file():
                    dangling.append(f"{path.relative_to(ROOT)}:{line_number}: {name}")
    assert scanned > 100  # the walk found the tree
    assert not dangling, "\n".join(dangling)


def test_the_pattern_takes_bare_names_and_leaves_paths():
    line = "see ``DESIGN.md`` / EXPERIMENTS.md, perf/README.md and `.claude/skills/verify/SKILL.md`"
    assert BARE_MARKDOWN_NAME.findall(line) == ["DESIGN.md", "EXPERIMENTS.md"]


def test_no_roadmap_item_is_cited_by_number():
    scanned, stale = 0, []
    for directory in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            scanned += 1
            text = path.read_text(encoding="utf-8")
            for match in NUMBERED_ROADMAP_ITEM.finditer(text):
                line_number = text.count("\n", 0, match.start()) + 1
                stale.append(f"{path.relative_to(ROOT)}:{line_number}: {match.group(0)!r}")
    assert scanned > 100  # the walk found the tree
    assert not stale, "\n".join(stale)


def test_the_roadmap_pattern_takes_numbers_and_leaves_titles():
    numbered = "ROADMAP " + "item 5, and ROADMAP\n    items 3 and 4"
    assert len(NUMBERED_ROADMAP_ITEM.findall(numbered)) == 2
    assert not NUMBERED_ROADMAP_ITEM.search("ROADMAP 'Fault fuzzing on hypothesis'")
