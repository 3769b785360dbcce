"""Lexical C++ utilities for bda_analyze.

Everything here operates on whole-file text and preserves offsets: comments
and string/char literal *contents* are blanked with spaces (newlines kept),
so byte offset <-> line number mapping is identical between the raw file and
the stripped view.  The structural helpers (brace matching, class bodies,
function bodies, lambda extraction, pragma joining) are deliberately not a
C++ parser — they are tuned to this tree's clang-format layout, and every
check built on them is validated against the fixture corpus in fixtures/.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass


def strip_code(text: str) -> str:
    """Blank comments and string/char-literal contents; keep length."""
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE_C, BLOCK_C, STR, CHR, RAW = range(6)
    state = NORMAL
    quote_end = ""  # raw-string terminator
    while i < n:
        c = text[i]
        if state == NORMAL:
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = LINE_C
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = BLOCK_C
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                if i >= 1 and text[i - 1] == "R":
                    m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1:])
                    if m:
                        state = RAW
                        quote_end = ")" + m.group(1) + '"'
                        i += m.end() - 1
                        continue
                state = STR
                i += 1
                continue
            if c == "'":
                # Digit separators (1'000'000) are not char literals.
                if i >= 1 and (text[i - 1].isdigit() and i + 1 < n
                               and (text[i + 1].isdigit()
                                    or text[i + 1] in "abcdefABCDEF")):
                    i += 1
                    continue
                state = CHR
                i += 1
                continue
            i += 1
        elif state == LINE_C:
            if c == "\n":
                state = NORMAL
            elif c != "\t":
                out[i] = " "
            i += 1
        elif state == BLOCK_C:
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                out[i] = out[i + 1] = " "
                state = NORMAL
                i += 2
                continue
            if c not in "\n\t":
                out[i] = " "
            i += 1
        elif state in (STR, CHR):
            end = '"' if state == STR else "'"
            if c == "\\" and i + 1 < n:
                out[i] = " "
                if text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == end:
                state = NORMAL
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == RAW:
            if text.startswith(quote_end, i):
                i += len(quote_end)
                state = NORMAL
                continue
            if c != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


class LineMap:
    """Offset -> 1-based line number."""

    def __init__(self, text: str):
        self.starts = [0]
        for i, c in enumerate(text):
            if c == "\n":
                self.starts.append(i + 1)

    def line(self, offset: int) -> int:
        return bisect.bisect_right(self.starts, offset)


def match_forward(code: str, open_idx: int, pairs: str = "()") -> int:
    """Index of the delimiter matching code[open_idx], or -1."""
    op, cl = pairs[0], pairs[1]
    assert code[open_idx] == op
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == op:
            depth += 1
        elif code[i] == cl:
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_angles(code: str, open_idx: int) -> int:
    """Match template angle brackets (no shift-operator handling needed for
    the declaration contexts this is used in)."""
    assert code[open_idx] == "<"
    depth = 0
    for i in range(open_idx, len(code)):
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i
        elif c in ";{}":
            return -1
    return -1


@dataclass
class Span:
    """A [start, end) byte range within the stripped code."""
    start: int
    end: int

    def slice(self, code: str) -> str:
        return code[self.start:self.end]


@dataclass
class ClassBody:
    name: str
    keyword: str            # "class" or "struct"
    decl_offset: int
    body: Span              # inside the braces


@dataclass
class FunctionBody:
    name: str
    decl_offset: int
    header: str             # up to 3 lines before the opening brace
    body: Span              # including the braces


@dataclass
class Lambda:
    intro_offset: int       # offset of '['
    body: Span              # including the braces
    context: str            # what call it was passed to (e.g. "std::async")


@dataclass
class OmpPragma:
    line: int               # 1-based line of the '#pragma'
    text: str               # continuation lines joined
    offset: int             # byte offset in the stripped code


CLASS_RE = re.compile(r"\b(class|struct)\s+(\w+)[^;{()]*\{")


def find_classes(code: str) -> list[ClassBody]:
    out = []
    for m in CLASS_RE.finditer(code):
        open_idx = m.end() - 1
        close = match_forward(code, open_idx, "{}")
        if close < 0:
            continue
        out.append(ClassBody(name=m.group(2), keyword=m.group(1),
                             decl_offset=m.start(),
                             body=Span(open_idx + 1, close)))
    return out


# A function definition header: return type soup, a name, a parameter list
# with no ';' inside, then an optional specifier run (including thread-safety
# annotations such as BDA_REQUIRES(mu_)) and '{'.  Constructors, operators
# and templates are matched well enough for the whole-body scans the checks
# do; precision comes from the checks, not from here.
#
# The runs around the lazy return-type soup never backtrack: the leading
# whitespace is possessive and the specifier run is an atomic group.  No
# match is lost, since whitespace cannot start a name and a specifier run
# never contains a '{'.  Without that, a blanked doc comment above a
# declaration ending in ';' is split every possible way between the three
# whitespace-accepting runs: cubic in the comment length (80 lines: ~48 s).
FUNC_RE = re.compile(
    r"(?:^|[;{}\n])\s*+(?:template\s*<[^;{}]*>\s*)?"
    r"[\w:<>,&*~\s\[\]]*?\b([\w~]+)\s*\(([^;{}()]*(?:\([^()]*\)[^;{}()]*)*)\)"
    r"(?>\s*(?:const|noexcept|override|final|mutable|BDA_\w+(?:\([^()]*\))?|"
    r"->\s*[\w:<>,&*\s]+|\s)*)\{")


def find_functions(code: str) -> list[FunctionBody]:
    out = []
    for m in FUNC_RE.finditer(code):
        open_idx = m.end() - 1
        name = m.group(1)
        if name in ("if", "for", "while", "switch", "catch", "return",
                    "sizeof", "alignof", "decltype", "new", "delete"):
            continue
        close = match_forward(code, open_idx, "{}")
        if close < 0:
            continue
        hdr_start = code.rfind("\n", 0, max(0, m.start()))
        for _ in range(3):
            hdr_start = code.rfind("\n", 0, max(0, hdr_start))
            if hdr_start < 0:
                hdr_start = 0
                break
        out.append(FunctionBody(name=name, decl_offset=m.start(),
                                header=code[hdr_start:open_idx],
                                body=Span(open_idx, close + 1)))
    return out


def find_lambda_in_args(code: str, args: Span, context: str) -> list[Lambda]:
    """Lambdas appearing directly in a call's argument span."""
    out = []
    i = args.start
    while i < args.end:
        c = code[i]
        if c != "[":
            i += 1
            continue
        # A lambda introducer follows '(', ',', '{', or whitespace after
        # those; a subscript follows an identifier or ')'.
        j = i - 1
        while j >= args.start and code[j] in " \t\n":
            j -= 1
        if j >= args.start and (code[j].isalnum() or code[j] in "_)]"):
            i += 1
            continue
        close_b = match_forward(code, i, "[]")
        if close_b < 0:
            break
        k = close_b + 1
        while k < args.end and code[k] in " \t\n":
            k += 1
        if k < args.end and code[k] == "(":
            close_p = match_forward(code, k, "()")
            if close_p < 0:
                break
            k = close_p + 1
        # Skip specifiers (mutable, noexcept, -> T) up to the body brace.
        while k < args.end and code[k] != "{":
            if code[k] == ";" or code[k] == ")":
                break
            k += 1
        if k >= args.end or code[k] != "{":
            i = close_b + 1
            continue
        close_body = match_forward(code, k, "{}")
        if close_body < 0:
            break
        out.append(Lambda(intro_offset=i, body=Span(k, close_body + 1),
                          context=context))
        i = close_body + 1
    return out


def join_omp_pragmas(code: str) -> list[OmpPragma]:
    """'#pragma omp' directives with backslash continuations joined.

    Offsets/lines come from the stripped code so they line up with the other
    structural facts.
    """
    out = []
    lines = code.splitlines(keepends=True)
    offset = 0
    i = 0
    while i < len(lines):
        line = lines[i]
        m = re.match(r"\s*#\s*pragma\s+omp\b", line)
        if m:
            text = line.rstrip("\n")
            j = i
            while text.rstrip().endswith("\\") and j + 1 < len(lines):
                j += 1
                text = text.rstrip().rstrip("\\") + " " + \
                    lines[j].rstrip("\n").lstrip()
            out.append(OmpPragma(line=i + 1, text=re.sub(r"\s+", " ", text),
                                 offset=offset))
            skipped = sum(len(lines[k]) for k in range(i, j + 1))
            offset += skipped
            i = j + 1
            continue
        offset += len(line)
        i += 1
    return out

