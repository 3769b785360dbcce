#!/usr/bin/env python3
"""Golden-fixture selftest for the bda_analyze static analyzer.

fixtures/ is a miniature repo (fixtures/{src,tests,bench}/...) so the
path-scoped checks see the directories they gate on.  Each fixture seeds
violations marked inline:

    // EXPECT: <check-name>         finding expected on this line
    // EXPECT-NEXT: <check-name>    finding expected on the next line
    // EXPECT-SUPPRESSED: <check>   suppressed finding expected in this file

The analyzer must report *exactly* the expected findings: a missing one
means the check regressed, an extra one is a false positive — the selftest
fails in both directions.  Registered as the ctest `bda_analyze_selftest`.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

EXPECT_RE = re.compile(r"EXPECT(?P<nxt>-NEXT)?:\s*(?P<check>[\w-]+)")
EXPECT_SUPP_RE = re.compile(r"EXPECT-SUPPRESSED:\s*(?P<check>[\w-]+)")


def harvest_expected():
    findings: set[tuple[str, int, str]] = set()
    suppressed: dict[str, list[str]] = {}
    for p in sorted(FIXTURES.rglob("*")):
        if p.suffix not in (".cpp", ".hpp", ".h", ".cc"):
            continue
        rel = p.relative_to(FIXTURES).as_posix()
        for lineno, line in enumerate(p.read_text().splitlines(), 1):
            for m in EXPECT_SUPP_RE.finditer(line):
                suppressed.setdefault(rel, []).append(m.group("check"))
            # Strip the suppressed markers so EXPECT_RE cannot half-match.
            stripped = EXPECT_SUPP_RE.sub("", line)
            for m in EXPECT_RE.finditer(stripped):
                at = lineno + 1 if m.group("nxt") else lineno
                findings.add((rel, at, m.group("check")))
    return findings, suppressed


def main() -> int:
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "report.json"
        proc = subprocess.run(
            [sys.executable, str(HERE), "--root", str(FIXTURES),
             "--json", str(out)],
            capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            print("selftest: analyzer crashed "
                  f"(exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
            return 1
        data = json.loads(out.read_text())

    want, want_supp = harvest_expected()
    got = {(f["file"], f["line"], f["check"]) for f in data["findings"]}
    got_supp: dict[str, list[str]] = {}
    for f in data["suppressed"]:
        got_supp.setdefault(f["file"], []).append(f["check"])

    ok = True
    for miss in sorted(want - got):
        ok = False
        print(f"selftest: MISSED (check regressed): "
              f"{miss[0]}:{miss[1]} [{miss[2]}]")
    for extra in sorted(got - want):
        ok = False
        print(f"selftest: FALSE POSITIVE: "
              f"{extra[0]}:{extra[1]} [{extra[2]}]")
    for rel in sorted(set(want_supp) | set(got_supp)):
        if sorted(want_supp.get(rel, [])) != sorted(got_supp.get(rel, [])):
            ok = False
            print(f"selftest: suppression mismatch in {rel}: expected "
                  f"{sorted(want_supp.get(rel, []))}, got "
                  f"{sorted(got_supp.get(rel, []))}")
    if proc.returncode != 1:
        # Seeded violations exist, so the analyzer must exit 1 here.
        ok = False
        print(f"selftest: expected exit 1 over fixtures, got "
              f"{proc.returncode}")

    if not want:
        ok = False
        print("selftest: no EXPECT markers harvested — fixture set broken?")

    checks_covered = {c for (_, _, c) in want}
    print(f"selftest: {'OK' if ok else 'FAILED'} — "
          f"{len(want)} expected finding(s), "
          f"{len(checks_covered)} check(s) covered: "
          f"{', '.join(sorted(checks_covered))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
