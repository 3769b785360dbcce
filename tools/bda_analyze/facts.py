"""Structural facts extracted from one source file, plus the tree-level
indexes (status functions, lock annotations) the cross-file checks read.

A `FileFacts` is the common input contract for every check in checks.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import cpplex


@dataclass
class SyncMember:
    """A std::mutex / std::condition_variable class member."""
    kind: str               # "mutex" or "condition_variable"
    name: str
    line: int
    guarded_by: str | None  # BDA_GUARDED_BY(x) on the declaration itself


@dataclass
class ClassFacts:
    name: str
    keyword: str = "class"  # "class" or "struct"
    sync_members: list[SyncMember] = field(default_factory=list)
    #: mutex names referenced by BDA_GUARDED_BY/BDA_PT_GUARDED_BY anywhere
    #: in the class body (i.e. "this mutex demonstrably guards something").
    guard_targets: set[str] = field(default_factory=set)


@dataclass
class ThreadContext:
    """A code span that runs off the calling thread (lambda handed to
    std::async / std::thread / a thread-vector, plus the bodies of functions
    those lambdas call within the same file — one hop)."""
    span: cpplex.Span
    origin: str             # e.g. "std::async", "threads_.emplace_back"


@dataclass
class UnorderedLoop:
    """Range-for / iterator loop over a std::unordered_* container."""
    container: str
    line: int
    body: cpplex.Span


@dataclass
class FileFacts:
    rel: str                # repo-relative, '/'-separated
    raw: str
    code: str               # comments/strings blanked, offsets preserved
    linemap: cpplex.LineMap
    classes: list[ClassFacts]
    functions: list[cpplex.FunctionBody]
    thread_contexts: list[ThreadContext]
    unordered_loops: list[UnorderedLoop]
    omp_pragmas: list[cpplex.OmpPragma]

    def line(self, offset: int) -> int:
        return self.linemap.line(offset)


MUTEX_MEMBER_RE = re.compile(
    r"(?:mutable\s+)?std::(mutex|condition_variable(?:_any)?)\s+(\w+)\s*"
    r"((?:BDA_GUARDED_BY|BDA_CV_OF)\(\s*(\w+)\s*\))?\s*;")
GUARD_TARGET_RE = re.compile(r"BDA_(?:PT_)?GUARDED_BY\(\s*(\w+)\s*\)")

# Thread-launch call sites whose lambda argument runs off-thread.
ASYNC_LAUNCH_RE = re.compile(r"\bstd::(?:async|thread|jthread)\s*[({]")
THREAD_VEC_RE = re.compile(
    r"\bstd::vector\s*<\s*std::j?thread\s*>\s+(\w+)")

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_\w+\s*<")


def _extract_classes(code: str, lm: cpplex.LineMap) -> list[ClassFacts]:
    out = []
    class_bodies = cpplex.find_classes(code)
    for cb in class_bodies:
        cf = ClassFacts(name=cb.name, keyword=cb.keyword)
        # Mask nested class bodies so a member is attributed only to its
        # innermost declaring class (Mailbox's cv is not CommWorld's).
        body_chars = list(cb.body.slice(code))
        for other in class_bodies:
            if other is cb:
                continue
            if cb.body.start < other.body.start and \
                    other.body.end <= cb.body.end:
                for i in range(other.body.start - cb.body.start,
                               other.body.end - cb.body.start):
                    if body_chars[i] not in "\n":
                        body_chars[i] = " "
        body = "".join(body_chars)
        for m in MUTEX_MEMBER_RE.finditer(body):
            kind = ("condition_variable"
                    if m.group(1).startswith("condition_variable")
                    else "mutex")
            cf.sync_members.append(SyncMember(
                kind=kind, name=m.group(2),
                line=lm.line(cb.body.start + m.start()),
                guarded_by=m.group(4)))
        for m in GUARD_TARGET_RE.finditer(body):
            cf.guard_targets.add(m.group(1))
        out.append(cf)
    return out


def _extract_thread_contexts(code: str,
                             functions: list[cpplex.FunctionBody],
                             ) -> list[ThreadContext]:
    contexts: list[ThreadContext] = []
    lambdas: list[cpplex.Lambda] = []

    for m in ASYNC_LAUNCH_RE.finditer(code):
        open_idx = m.end() - 1
        pairs = "()" if code[open_idx] == "(" else "{}"
        close = cpplex.match_forward(code, open_idx, pairs)
        if close < 0:
            continue
        origin = re.sub(r"\s*[({]$", "", m.group(0))
        lambdas += cpplex.find_lambda_in_args(
            code, cpplex.Span(open_idx + 1, close), origin)

    # Vectors of std::thread: lambdas handed to emplace_back/push_back.
    for tv in THREAD_VEC_RE.finditer(code):
        vec = tv.group(1)
        for call in re.finditer(
                rf"\b{re.escape(vec)}\s*\.\s*(?:emplace_back|push_back)\s*\(",
                code):
            open_idx = call.end() - 1
            close = cpplex.match_forward(code, open_idx)
            if close < 0:
                continue
            lambdas += cpplex.find_lambda_in_args(
                code, cpplex.Span(open_idx + 1, close),
                f"{vec}.emplace_back")

    by_name = {}
    for fn in functions:
        by_name.setdefault(fn.name, fn)

    seen_spans = set()
    for lam in lambdas:
        key = (lam.body.start, lam.body.end)
        if key in seen_spans:
            continue
        seen_spans.add(key)
        contexts.append(ThreadContext(span=lam.body, origin=lam.context))
        # One hop: functions the lambda calls, when defined in this file,
        # also run on the worker thread (e.g. `[this, g] { worker(g); }`).
        for cm in re.finditer(r"\b(\w+)\s*\(", lam.body.slice(code)):
            callee = by_name.get(cm.group(1))
            if callee is None:
                continue
            ckey = (callee.body.start, callee.body.end)
            if ckey in seen_spans:
                continue
            seen_spans.add(ckey)
            contexts.append(ThreadContext(
                span=callee.body,
                origin=f"{lam.context} -> {callee.name}()"))
    return contexts


def _extract_unordered_loops(code: str, lm: cpplex.LineMap,
                             ) -> list[UnorderedLoop]:
    names = []
    for m in UNORDERED_DECL_RE.finditer(code):
        lt = m.end() - 1
        gt = cpplex.match_angles(code, lt)
        if gt < 0:
            continue
        nm = re.match(r"\s*&?\s*(\w+)", code[gt + 1:gt + 120])
        if nm and nm.group(1) not in ("const",):
            names.append(nm.group(1))
    if not names:
        return []

    out = []
    for fm in re.finditer(r"\bfor\s*\(", code):
        open_idx = fm.end() - 1
        close = cpplex.match_forward(code, open_idx)
        if close < 0:
            continue
        head = code[open_idx + 1:close]
        hit = None
        for name in names:
            if re.search(rf":\s*(?:\w+(?:\.|->))*{re.escape(name)}\b", head) \
                    or re.search(rf"\b{re.escape(name)}\s*\.\s*(?:c?begin|"
                                 r"c?end)\s*\(", head):
                hit = name
                break
        if hit is None:
            continue
        bi = close + 1
        while bi < len(code) and code[bi] in " \t\n":
            bi += 1
        if bi >= len(code):
            continue
        if code[bi] == "{":
            bclose = cpplex.match_forward(code, bi, "{}")
            body = cpplex.Span(bi, (bclose + 1) if bclose > 0 else len(code))
        else:
            semi = code.find(";", bi)
            body = cpplex.Span(bi, semi + 1 if semi > 0 else len(code))
        out.append(UnorderedLoop(container=hit, line=lm.line(fm.start()),
                                 body=body))
    return out


def extract(path: Path, rel: str) -> FileFacts:
    raw = path.read_text(errors="replace")
    code = cpplex.strip_code(raw)
    lm = cpplex.LineMap(code)
    functions = cpplex.find_functions(code)
    return FileFacts(
        rel=rel, raw=raw, code=code, linemap=lm,
        classes=_extract_classes(code, lm),
        functions=functions,
        thread_contexts=_extract_thread_contexts(code, functions),
        unordered_loops=_extract_unordered_loops(code, lm),
        omp_pragmas=cpplex.join_omp_pragmas(code),
    )


# ---------------------------------------------------------------------------
# Tree-level facts: the status-function index for unchecked-status.

#: Return types that make a discarded call a finding.  `bool` covers the
#: tree's fallible operations (the eigensolver class PR 4 fixed);
#: TransferResult is the JIT-DT outcome record.
STATUS_RETURN_TYPES = ("bool", "TransferResult", "jitdt::TransferResult")

STATUS_FN_RE = re.compile(
    r"(?:^|[;{}\n])\s*(?:\[\[nodiscard\]\]\s*)?"
    r"(?:virtual\s+|static\s+|inline\s+|constexpr\s+|friend\s+)*"
    r"(?:%s)\s+(\w+)\s*\(" % "|".join(
        t.replace(":", "\\:") for t in STATUS_RETURN_TYPES))


def _split_top_level(args: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for c in args:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if "".join(cur).strip():
        parts.append("".join(cur))
    return parts


def status_function_index(header_texts: dict[str, str]) -> dict:
    """name -> list of {header, min_arity, max_arity} for every bool/status-
    returning function declared in the given headers.  Arity matters: a
    discarded `solver.solve()` must not match `BatchedSymEigen::solve(a, w)`
    just because the names collide."""
    index: dict[str, list[dict]] = {}
    for rel, text in header_texts.items():
        code = cpplex.strip_code(text)
        for m in STATUS_FN_RE.finditer(code):
            name = m.group(1)
            if name in ("operator", "if", "while", "return"):
                continue
            open_idx = m.end() - 1
            close = cpplex.match_forward(code, open_idx)
            if close < 0:
                continue
            params = _split_top_level(code[open_idx + 1:close])
            params = [p for p in params if p.strip() not in ("", "void")]
            defaults = sum(1 for p in params if "=" in p)
            entry = {"header": rel, "min_arity": len(params) - defaults,
                     "max_arity": len(params)}
            if entry not in index.setdefault(name, []):
                index[name].append(entry)
    return index


# ---------------------------------------------------------------------------
# Tree-level facts: the lock-annotation index for guarded-by.

# `member BDA_GUARDED_BY(mu)` / `cv BDA_CV_OF(mu)`; BDA_CV_OF ties a
# condition variable to its mutex and is checked like a guarded member.
# The negative lookahead skips the macros' own `#define` stubs.
GUARDED_MEMBER_RE = re.compile(
    r"\b(?!define\b)(\w+)\s*BDA_(?:GUARDED_BY|CV_OF)\(\s*(\w+)\s*\)")
# A function declared `name(...) ... BDA_REQUIRES(mu, ...)`.
REQUIRES_DECL_RE = re.compile(
    r"\b(\w+)\s*\([^;{}]*\)[^;{}]*?BDA_REQUIRES\(([\w, ]*)\)")


@dataclass
class LockFacts:
    """Lock annotations declared in one file."""
    guarded: dict[str, str]          # member -> the mutex guarding it
    requires: dict[str, set[str]]    # function name -> mutexes it requires


def lock_facts(text: str) -> LockFacts:
    code = cpplex.strip_code(text)
    requires: dict[str, set[str]] = {}
    for m in REQUIRES_DECL_RE.finditer(code):
        requires.setdefault(m.group(1), set()).update(
            re.findall(r"\w+", m.group(2)))
    return LockFacts(guarded=dict(GUARDED_MEMBER_RE.findall(code)),
                     requires=requires)
