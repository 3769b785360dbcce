"""Findings, suppressions and report rendering for bda_analyze.

Suppression grammar (the one grammar for every check):

    // bda-style: allow(<check-name>): <non-empty reason>

The reason is mandatory — an allow() without one does not suppress, and is
itself reported (`bad-allow`), so every silenced finding carries its
justification in the diff.  The marker may sit on the finding's line or on
a comment-only line immediately above it (for pragmas and long lines).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

ALLOW_RE = re.compile(
    r"//\s*bda-style:\s*allow\((?P<name>[\w-]+)\)(?P<reason>.*)")


@dataclass
class Finding:
    rel: str
    line: int
    check: str
    message: str

    def render(self) -> str:
        return f"{self.rel}:{self.line}: [{self.check}] {self.message}"


def _ordered(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.rel, f.line, f.check))


class Suppressions:
    """Per-file index of allow() markers."""

    def __init__(self, raw_text: str):
        self.by_line: dict[int, list[dict]] = {}
        for lineno, line in enumerate(raw_text.splitlines(), 1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            entry = {
                "line": lineno,
                "check": m.group("name"),
                "reason_ok": bool(re.search(r"\S", m.group("reason")
                                            .lstrip(":").lstrip("—-"))),
                "comment_only": line.strip().startswith("//"),
            }
            self.by_line.setdefault(lineno, []).append(entry)

    def match(self, line: int, check: str) -> dict | None:
        """Marker covering `check` at `line`: same line, or a comment-only
        marker on the line above."""
        for cand_line, comment_only_required in ((line, False), (line - 1, True)):
            for entry in self.by_line.get(cand_line, []):
                if entry["check"] != check:
                    continue
                if comment_only_required and not entry["comment_only"]:
                    continue
                return entry
        return None

    def bad_allow_findings(self, rel: str) -> list[Finding]:
        out = []
        for entries in self.by_line.values():
            for e in entries:
                if not e["reason_ok"]:
                    out.append(Finding(
                        rel, e["line"], "bad-allow",
                        f"allow({e['check']}) without a reason — write "
                        f"'// bda-style: allow({e['check']}): <why>'"))
        return out


class Report:
    def __init__(self):
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []
        self.files_analyzed = 0
        self.trees: set[str] = set()

    def add(self, finding: Finding, supp: Suppressions | None):
        entry = supp.match(finding.line, finding.check) if supp else None
        if entry is not None and entry["reason_ok"]:
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)

    def to_json(self) -> str:
        def enc(f: Finding):
            return {"file": f.rel, "line": f.line, "check": f.check,
                    "message": f.message}
        return json.dumps({
            "tool": "bda_analyze",
            "files_analyzed": self.files_analyzed,
            "findings": [enc(f) for f in _ordered(self.findings)],
            "suppressed": [enc(f) for f in _ordered(self.suppressed)],
        }, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f.render() for f in _ordered(self.findings)]
        lines += [f"suppressed: {f.rel}:{f.line} [{f.check}]"
                  for f in _ordered(self.suppressed)]
        tail = (f"bda_analyze: {len(self.findings)} finding(s), "
                f"{len(self.suppressed)} suppressed, "
                f"{self.files_analyzed} file(s) in "
                f"{', '.join(sorted(self.trees))}")
        return "\n".join(lines + [tail])
