"""Doc references in the code must not go stale.

A reference to a top-level Markdown file must name one that exists.  Scope:
``src/``, ``examples/``, ``benchmarks/`` and the top-level ``*.md``
documents.  ``perf/`` keeps its own README and is left out.  A reference is
a bare ``NAME.md``; ``perf/README.md`` or ``skills/verify/SKILL.md`` name a
path, not a top-level file.

A ROADMAP item is cited by its title, never by its number: items are
renumbered whenever the ROADMAP is re-anchored.  Scope: ``src/``,
``tests/``, ``examples/`` and ``benchmarks/``.

A ``--flag`` written after ``repro.bench.runner`` must be an option of the
runner's parser.  Scope: the documents above plus the CI workflow and the
verify skill.  The command runs to the end of its line, or, when it opens
inside a code span, to the span's closing backtick on a later line.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Plans and history name files that are gone or still to be written.
NARRATIVE = {"ISSUE.md", "REVIEW.md", "ROADMAP.md", "CHANGES.md"}
BARE_MARKDOWN_NAME = re.compile(r"(?<![\w/.-])([A-Za-z_][\w-]*\.md)\b")
#: "ROADMAP", then "item" or "items" and a digit, also across a line break.
NUMBERED_ROADMAP_ITEM = re.compile(r"ROADMAP\s+items?\s+\d")
RUNNER = re.compile(r"repro\.bench\.runner\b")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


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


def runner_flags(text):
    """``(offset, flag)`` for every ``--flag`` written after ``repro.bench.runner``."""
    for match in RUNNER.finditer(text):
        line_start = text.rfind("\n", 0, match.start()) + 1
        in_code_span = len(re.findall(r"`+", text[line_start:match.start()])) % 2 == 1
        rest = text[match.end():]
        end = re.search(r"`|\n\s*\n" if in_code_span else r"\n", rest)
        command = rest[: end.start()] if end else rest
        for flag in FLAG.finditer(command):
            yield match.end() + flag.start(), flag.group(0)


def test_every_runner_flag_in_the_docs_is_an_option_of_the_runner():
    from repro.bench.runner import build_parser

    options = {option for action in build_parser()._actions for option in action.option_strings}
    paths = [ROOT / ".github/workflows/ci.yml", ROOT / ".claude/skills/verify/SKILL.md"]
    found, stale = 0, []
    for path in [*paths, *documents()]:
        text = path.read_text(encoding="utf-8")
        for offset, flag in runner_flags(text):
            found += 1
            if flag not in options:
                line_number = text.count("\n", 0, offset) + 1
                stale.append(f"{path.relative_to(ROOT)}:{line_number}: {flag}")
    assert found > 10  # the walk found the CI steps and the docs
    assert not stale, "\n".join(stale)


def test_the_flag_pattern_follows_a_code_span_across_lines():
    text = (
        "diff with `python -m repro.bench.runner --perf-point sim-hotpath\n"
        "--profile-diff old.json new.json`; the `--other` flag is not the runner's.\n"
        "run: python -m repro.bench.runner --perf-point x --fail-below 0.7\n"
        "run: python -m repro.obs.report --top 5\n"
        "from repro.bench.runner import main\n"
        "--set-baseline\n"
    )
    flags = [flag for _, flag in runner_flags(text)]
    assert flags == ["--perf-point", "--profile-diff", "--perf-point", "--fail-below"]
