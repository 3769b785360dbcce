#!/usr/bin/env python3
"""Driver for bda_analyze, the repo's static analyzer.

Usage:
  python3 tools/bda_analyze                      # src/ tests/ bench/ examples/
  python3 tools/bda_analyze file.cpp ...         # specific files
  python3 tools/bda_analyze --json out.json      # machine-readable report
  python3 tools/bda_analyze --check-compiledb    # probe DB freshness only

Exit status: 0 clean, 1 findings, 2 usage/configuration error.

The checks, their scopes and the contract each one encodes are cataloged
in docs/ANALYSIS.md; suppressions use the repo-wide grammar
`// bda-style: allow(<check>): <reason>` (reason mandatory).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compiledb  # noqa: E402
import facts as facts_mod  # noqa: E402
from checks import ALL_CHECKS, SOURCE_TREES  # noqa: E402
from report import Report, Suppressions  # noqa: E402

REPO = Path(__file__).resolve().parent.parent.parent


@dataclass
class TreeFacts:
    """Cross-file facts shared by every check invocation."""
    status_functions: dict[str, str] = field(default_factory=dict)
    locks: dict[str, facts_mod.LockFacts] = field(default_factory=dict)


def _rel(repo: Path, path: Path) -> str:
    return str(path.relative_to(repo)).replace(os.sep, "/")


def discover_sources(repo: Path) -> list[Path]:
    out = []
    for tree in SOURCE_TREES:
        for p in sorted((repo / tree).rglob("*")):
            if p.suffix in (".cpp", ".hpp", ".h", ".cc"):
                out.append(p)
    return out


def build_tree_facts(repo: Path, sources: list[Path]) -> TreeFacts:
    texts = {_rel(repo, p): p.read_text(errors="replace") for p in sources}
    headers = {rel: text for rel, text in texts.items()
               if rel.endswith((".hpp", ".h"))}
    return TreeFacts(
        status_functions=facts_mod.status_function_index(headers),
        locks={rel: facts_mod.lock_facts(text) for rel, text in texts.items()
               if "BDA_" in text})


def analyze(repo: Path, files: list[Path], checks: dict) -> Report:
    tree = build_tree_facts(repo, discover_sources(repo))
    report = Report()
    for path in files:
        try:
            rel = _rel(repo, path.resolve())
        except ValueError:
            rel = str(path)
        ff = facts_mod.extract(path, rel)
        supp = Suppressions(ff.raw)
        for in_scope, fn in checks.values():
            if in_scope(rel):
                fn(ff, tree, report, supp)
        report.files_analyzed += 1
        report.trees.add(rel.split("/")[0])
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bda_analyze")
    ap.add_argument("files", nargs="*", help="restrict to these files")
    ap.add_argument("--root", default=str(REPO), help="repo root")
    ap.add_argument("--json", metavar="PATH",
                    help="also write the findings report as JSON")
    ap.add_argument("--build-dir", default=os.environ.get(
        "BDA_LINT_BUILD_DIR", "build"))
    ap.add_argument("--check-compiledb", action="store_true",
                    help="probe compile_commands.json freshness and exit "
                         "(0 fresh, 2 missing/stale); no analysis runs")
    ap.add_argument("--check",  action="append", dest="only",
                    metavar="NAME", help="run only the named check(s)")
    args = ap.parse_args(argv)

    repo = Path(args.root).resolve()

    if args.check_compiledb:
        reason = compiledb.staleness(
            repo, repo / args.build_dir / "compile_commands.json")
        if reason:
            print(f"bda_analyze: stale compilation database: {reason}",
                  file=sys.stderr)
            return 2
        print(f"bda_analyze: {args.build_dir}/compile_commands.json is fresh")
        return 0

    checks = ALL_CHECKS
    if args.only:
        unknown = [c for c in args.only if c not in ALL_CHECKS]
        if unknown:
            print(f"bda_analyze: unknown check(s): {', '.join(unknown)} "
                  f"(known: {', '.join(ALL_CHECKS)})", file=sys.stderr)
            return 2
        checks = {k: v for k, v in ALL_CHECKS.items() if k in args.only}

    if args.files:
        files = [Path(f).resolve() for f in args.files]
        missing = [str(f) for f in files if not f.is_file()]
        if missing:
            print(f"bda_analyze: no such file: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
    else:
        files = discover_sources(repo)

    report = analyze(repo, files, checks)
    print(report.render_text())
    if args.json:
        Path(args.json).write_text(report.to_json())
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
