#!/usr/bin/env python
"""Internal link check for the docs suite.

Scans README.md and docs/*.md for markdown links and inline code
references to repo files, and fails when a target doesn't exist:

- relative markdown links (``[text](docs/tuning.md)``,
  ``[text](../BENCH_e12.json)``) must resolve to a file or directory,
  and ``#fragment`` anchors on internal links must match a heading in
  the target document;
- inline code references to repo paths — a backticked ``src/…``,
  ``tests/…``, ``docs/…`` or ``BENCH_….json`` — must resolve from the
  repo root; for ``path::Name`` the file part is checked, and a ``*``
  pattern (``BENCH_*.json``) must match at least one file;
- external links (``http://``, ``https://``, ``mailto:``) are *not*
  fetched — CI stays offline — but are counted in the summary.

Exit status: 0 when every internal link and code reference resolves,
1 otherwise.
Run it from anywhere: paths resolve relative to the repo root.

    python tools/check_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

# [text](target) — tolerates titles: [text](target "title")
LINK_RE = re.compile(r"\[[^\]]*\]\(\s*<?([^)\s>]+)>?(?:\s+\"[^\"]*\")?\s*\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
# `src/…`, `tests/…`, `docs/…`, `BENCH_….json`, each optionally `::Name`
CODE_REF_RE = re.compile(r"`((?:src|tests|docs)/[^`\s:]*|BENCH_[\w*]+\.json)(?:::[^`]*)?`")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def slugify(heading: str) -> str:
    """GitHub-style anchor: lowercase, spaces to dashes, drop punctuation."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    return {slugify(match) for match in HEADING_RE.findall(path.read_text())}


def check_file(path: Path) -> tuple[list[str], int, int, int]:
    """Returns (problems, internal_count, external_count, code_ref_count)
    for one file."""
    problems: list[str] = []
    internal = external = 0
    text = path.read_text()
    refs = CODE_REF_RE.findall(text)
    for ref in refs:
        found = any(REPO_ROOT.glob(ref)) if "*" in ref else (REPO_ROOT / ref).exists()
        if not found:
            problems.append(f"{path.relative_to(REPO_ROOT)}: missing code reference -> {ref}")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL_PREFIXES):
            external += 1
            continue
        internal += 1
        base, _, fragment = target.partition("#")
        resolved = (path.parent / base).resolve() if base else path
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_of(resolved):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}: missing anchor -> {target}"
                )
    return problems, internal, external, len(refs)


def main() -> int:
    files = doc_files()
    if not files:
        print("error: no documentation files found", file=sys.stderr)
        return 1
    all_problems: list[str] = []
    internal = external = refs = 0
    for path in files:
        problems, n_int, n_ext, n_refs = check_file(path)
        all_problems.extend(problems)
        internal += n_int
        external += n_ext
        refs += n_refs
    for problem in all_problems:
        print(problem, file=sys.stderr)
    verdict = "FAIL" if all_problems else "ok"
    print(
        f"{verdict}: {len(files)} files, {internal} internal links and {refs} "
        f"code references checked, {external} external links skipped, "
        f"{len(all_problems)} broken"
    )
    return 1 if all_problems else 0


if __name__ == "__main__":
    sys.exit(main())
