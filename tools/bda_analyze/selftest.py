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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
sys.path.insert(0, str(HERE))
import cpplex  # noqa: E402

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


def func_scan_is_linear() -> bool:
    """A 40-line doc comment above a declaration must not make the function
    scan backtrack: the cubic FUNC_RE took ~2.7 s here, the fixed one ~1 ms.
    Only the definition after the declaration is a function."""
    doc = "".join(f"/// line {n} of a long doc comment\n" for n in range(40))
    code = cpplex.strip_code(doc + "void f(int);\nint g() { return 1; }\n")
    t0 = time.perf_counter()
    names = [fn.name for fn in cpplex.find_functions(code)]
    took = time.perf_counter() - t0
    if names != ["g"] or took > 0.25:
        print(f"selftest: function scan over a 40-line doc comment found "
              f"{names} in {took:.2f} s (want ['g'] in under 0.25 s)")
        return False
    return True


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

    ok = func_scan_is_linear()
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
