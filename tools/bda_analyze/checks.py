"""The determinism and hygiene checks, and the files each one reads.

Each check is a function (facts, tree, report, supp) -> None that appends
Findings; ALL_CHECKS pairs it with its scope, a predicate over the
repo-relative path.  What they encode — and why no generic tool can — is
the paper's operational contract: the pipelined 30-s cycle must be
*bitwise identical* to the serial cycle (docs/PIPELINE.md), which
constrains where randomness may be drawn, how floating-point sums may be
ordered, and what byte streams container iteration may feed; and the
single-precision hot paths must stay in float.  The lock-annotation and
status checks close the two silent-failure classes PR 1 and PR 4 fixed by
hand.
"""

from __future__ import annotations

import re

import cpplex
from facts import FileFacts, _split_top_level
from report import Finding, Report, Suppressions

# The trees source discovery walks.
SOURCE_TREES = ("src/", "tests/", "bench/", "examples/")

# The seed SCALE kernels kept as the bitwise oracle for src/scale
# (docs/SCALE_KERNELS.md): their float arithmetic and OpenMP loops are the
# contract the production kernels are held to, so the src/scale checks
# cover them too.
SCALE_ORACLE_DIR = "tests/support/scale_oracle"

# The seed LETKF selection, Gram and projection kept as the bitwise oracle
# for src/letkf (docs/LETKF_KERNEL.md), held to the src/letkf checks for the
# same reason.
LETKF_ORACLE_DIR = "tests/support/letkf_oracle"

# Where the bitwise-determinism contract applies (docs/PIPELINE.md): the
# analysis/ensemble state path.  Checks outside these trees would flag
# legitimately order-free code (benches, examples).
DETERMINISM_DIRS = ("src/letkf", "src/scale", "src/workflow",
                    SCALE_ORACLE_DIR, LETKF_ORACLE_DIR)

# The cycle path for unchecked-status: a dropped status here loses a cycle
# (or silently corrupts one) rather than a test expectation.
CYCLE_PATH_DIRS = ("src/workflow", "src/jitdt", "src/letkf", "src/scale",
                   "src/hpc", "src/pawr")

# Where bda::real (float) arithmetic is the contract: the model kernels, the
# LETKF solve, and the per-gate radar forward operator.
HOT_PATH_DIRS = ("src/scale", "src/letkf", "src/pawr/forward",
                 SCALE_ORACLE_DIR, LETKF_ORACLE_DIR)

# The one file allowed to spell reinterpret_cast (util/binary_io.hpp).
PUNNING_ALLOWED = ("src/util/binary_io.cpp",)

# Files whose byte output is a product of record: container iteration order
# here is *always* output-visible, no sink heuristic needed.
SERIALIZATION_FILES = (
    "src/workflow/products", "src/workflow/checkpoint", "src/util/metrics",
    "src/util/binary_io", "src/pawr/datafile",
)


def _under(*dirs, exclude=()):
    return lambda rel: rel.startswith(dirs) and rel not in exclude


# ---------------------------------------------------------------------------
# 1. rng-thread-discipline

RNG_USE_RE = re.compile(
    r"\bRng\b|\brng\w*\b|\bmt19937(?:_64)?\b|\brandom_device\b|"
    r"\bs?rand\s*\(|\buniform_(?:real|int)_distribution\b|"
    r"\bnormal_distribution\b")


def check_rng_thread_discipline(facts: FileFacts, tree, report: Report,
                                supp: Suppressions):
    """RNG engines may only be constructed and drawn from staged-API call
    sites on the calling thread (src/workflow/cycle.hpp): a draw inside a
    std::async / worker lambda splits the random stream across a schedule-
    dependent thread interleaving and breaks pipelined == serial."""
    for ctx in facts.thread_contexts:
        span_text = ctx.span.slice(facts.code)
        for m in RNG_USE_RE.finditer(span_text):
            line = facts.line(ctx.span.start + m.start())
            report.add(Finding(
                facts.rel, line, "rng-thread-discipline",
                f"'{m.group(0).strip()}' used inside a worker context "
                f"({ctx.origin}) — all RNG construction/draws belong in "
                "staged-API call sites on the calling thread "
                "(src/workflow/cycle.hpp RNG discipline)"), supp)


# ---------------------------------------------------------------------------
# 2. nondet-fp-reduction

REDUCTION_CLAUSE_RE = re.compile(r"\breduction\s*\(\s*([^:()]+):([^)]+)\)")
ORDER_SENSITIVE_OPS = {"+", "-", "*"}
# Declarator-list aware: `std::size_t a = 0, b = 0;` declares b too, so the
# type token may be separated from the variable by earlier declarators (but
# never by a ';').
FP_DECL_RE = (r"\b(?:const\s+)?(?:real|float|double|long\s+double)\s+"
              r"[^;(){{}}]*?\b{}\b")
INT_DECL_RE = (r"\b(?:const\s+)?(?:unsigned\s+)?(?:bool|int|idx|long|short|"
               r"std::size_t|size_t|std::u?int\d+_t|u?int\d+_t|"
               r"std::ptrdiff_t|char)\s+[^;(){{}}]*?\b{}\b")
ATOMIC_FP_RE = re.compile(r"\bstd::atomic\s*<\s*(?:float|double|real|"
                          r"bda::real|long\s+double)\s*>")


def _var_type_class(facts: FileFacts, var: str, before_offset: int) -> str:
    """'fp' | 'int' | 'unknown' for the nearest declaration of `var` above
    `before_offset` (enclosing function first, then whole file)."""
    fp = re.compile(FP_DECL_RE.format(re.escape(var)))
    iv = re.compile(INT_DECL_RE.format(re.escape(var)))
    region = facts.code[:before_offset]
    fp_pos = max((m.start() for m in fp.finditer(region)), default=-1)
    int_pos = max((m.start() for m in iv.finditer(region)), default=-1)
    if fp_pos < 0 and int_pos < 0:
        return "unknown"
    return "fp" if fp_pos > int_pos else "int"


def check_nondet_fp_reduction(facts: FileFacts, tree, report: Report,
                              supp: Suppressions):
    """Unordered OpenMP reductions and atomic accumulation over floating-
    point values: FP addition is not associative, and with dynamic
    scheduling the per-thread partial sums differ run to run — the result
    is nondeterministic even on one machine.  Integer reductions are exact
    in any order and pass.  An order-independence justification is an
    allow() with a reason."""
    for pragma in facts.omp_pragmas:
        for clause in REDUCTION_CLAUSE_RE.finditer(pragma.text):
            op = clause.group(1).strip()
            if op not in ORDER_SENSITIVE_OPS:
                continue
            for var in clause.group(2).split(","):
                var = var.strip()
                if not var:
                    continue
                cls = _var_type_class(facts, var, pragma.offset)
                if cls == "int":
                    continue
                why = ("declared floating-point" if cls == "fp" else
                       "type not provable as integer")
                report.add(Finding(
                    facts.rel, pragma.line, "nondet-fp-reduction",
                    f"omp reduction({op}:{var}) over a value that is {why} "
                    "— FP reduction order is schedule-dependent; use an "
                    "integer accumulator, a deterministic per-thread array "
                    "fold, or allow() with an order-independence reason"),
                    supp)
        if re.search(r"\bomp\s+atomic\b", pragma.text) and \
                not re.search(r"\bread\b|\bwrite\b", pragma.text):
            # The statement the atomic applies to is the next code line.
            nxt = facts.code[pragma.offset:].split("\n")
            stmt = ""
            for cand in nxt[1:]:
                if cand.strip():
                    stmt = cand
                    break
            tm = re.match(r"\s*([\w.\[\]>-]+?)\s*(?:\+|-|\*)=", stmt)
            if tm:
                base = re.split(r"[.\[\->]", tm.group(1))[0]
                if _var_type_class(facts, base, pragma.offset) != "int":
                    report.add(Finding(
                        facts.rel, pragma.line, "nondet-fp-reduction",
                        f"omp atomic accumulation into '{tm.group(1)}' — "
                        "atomic FP updates commit in scheduling order; "
                        "restructure as an ordered fold or allow() with an "
                        "order-independence reason"), supp)
    for m in ATOMIC_FP_RE.finditer(facts.code):
        report.add(Finding(
            facts.rel, facts.line(m.start()), "nondet-fp-reduction",
            "std::atomic over a floating-point type in a bitwise-"
            "determinism path — accumulation through it is ordering-"
            "nondeterministic; keep FP state thread-private and fold "
            "deterministically"), supp)


# ---------------------------------------------------------------------------
# 3. unordered-iteration-in-output

SINK_RE = re.compile(
    r"\bpush_back\b|\bemplace_back\b|\bappend\w*\b|\bwrite\w*\b|<<|"
    r"\bput_\w+\b|\bto_json\b|\bserialize\w*\b|\bsave_\w+\b|\binsert\b|"
    r"\bfwrite\b|\bemit\w*\b")


def check_unordered_iteration(facts: FileFacts, tree, report: Report,
                              supp: Suppressions):
    """Iterating a std::unordered_* container into anything ordered —
    serialized products, metrics JSON, checkpoint bytes, an observation
    vector — bakes the hash function and load factor into the output.
    That order differs across standard libraries (and across insertions),
    so the artifact is not reproducible.  Iterate a sorted view of the
    keys, or use an ordered container."""
    always_output = facts.rel.startswith(SERIALIZATION_FILES)
    for loop in facts.unordered_loops:
        body = loop.body.slice(facts.code)
        sink = SINK_RE.search(body)
        if not (always_output or sink):
            continue
        how = ("in a serialization unit" if always_output else
               f"feeding '{sink.group(0)}'")
        report.add(Finding(
            facts.rel, loop.line, "unordered-iteration-in-output",
            f"iteration over unordered container '{loop.container}' {how} "
            "— hash order leaks into the output bytes; iterate sorted keys "
            "or switch to an ordered container"), supp)


# ---------------------------------------------------------------------------
# 4. mutex-annotation

def check_mutex_annotation(facts: FileFacts, tree, report: Report,
                           supp: Suppressions):
    """Every std::mutex member must demonstrably guard something (at least
    one BDA_GUARDED_BY/BDA_PT_GUARDED_BY in its class, or a BDA_REQUIRES/
    BDA_ACQUIRE in the file); every std::condition_variable member must be
    tied to its mutex with BDA_CV_OF on its own declaration.  This is what
    keeps the guarded-by cross-check — the GCC stand-in for clang
    -Wthread-safety — complete rather than best-effort."""
    requires = set(re.findall(
        r"BDA_(?:REQUIRES|ACQUIRE|RELEASE)\(\s*([\w, ]+)\)", facts.code))
    requires = {name.strip() for grp in requires for name in grp.split(",")}
    for cls in facts.classes:
        mutex_names = {m.name for m in cls.sync_members if m.kind == "mutex"}
        for m in cls.sync_members:
            if m.kind == "mutex":
                if m.name in cls.guard_targets or m.name in requires:
                    continue
                report.add(Finding(
                    facts.rel, m.line, "mutex-annotation",
                    f"std::mutex '{m.name}' in {cls.keyword} '{cls.name}' "
                    "has no BDA_GUARDED_BY coverage — annotate the members "
                    "it protects (util/annotations.hpp)"), supp)
            else:  # condition_variable
                if m.guarded_by and m.guarded_by in mutex_names:
                    continue
                report.add(Finding(
                    facts.rel, m.line, "mutex-annotation",
                    f"condition_variable '{m.name}' in '{cls.name}' is not "
                    "tied to its mutex — declare it "
                    "'std::condition_variable cv BDA_CV_OF(<mutex>);' "
                    "so the wait/notify protocol is checkable"), supp)


# ---------------------------------------------------------------------------
# 5. unchecked-status

DISCARD_PREFIX_RE = re.compile(r"^\s*(?:[\w:]+(?:\.|->))*$")


def check_unchecked_status(facts: FileFacts, tree, report: Report,
                           supp: Suppressions):
    """A status return (bool / TransferResult) discarded as a bare
    expression-statement on the cycle path.  This is the class of bug PR 4
    dug out of the eigensolver: the operation fails, nobody notices, and
    the analysis silently degrades.  Consume the value, or cast to (void)
    with an allow() reason."""
    index = tree.status_functions
    code = facts.code
    for m in re.finditer(r"\b(\w+)\s*\(", code):
        name = m.group(1)
        if name not in index:
            continue
        # Statement prefix: text back to the previous ;, { or } must be a
        # bare receiver chain (no assignment, return, condition, cast...).
        start = max(code.rfind(";", 0, m.start()),
                    code.rfind("{", 0, m.start()),
                    code.rfind("}", 0, m.start()))
        prefix = code[start + 1:m.start(1)]
        if not DISCARD_PREFIX_RE.match(prefix):
            continue
        open_idx = m.end() - 1
        close = cpplex.match_forward(code, open_idx)
        if close < 0:
            continue
        after = code[close + 1:close + 40].lstrip()
        if not after.startswith(";"):
            continue
        # Arity filter: only flag when some declared overload of this name
        # could accept this many arguments.
        call_args = [a for a in _split_top_level(code[open_idx + 1:close])
                     if a.strip()]
        arity = len(call_args)
        decls = [d for d in index[name]
                 if d["min_arity"] <= arity <= d["max_arity"]]
        if not decls:
            continue
        report.add(Finding(
            facts.rel, facts.line(m.start()), "unchecked-status",
            f"return value of '{name}(...)' (declared in "
            f"{decls[0]['header']}) is discarded on the cycle path — check "
            "it, or cast to (void) with an allow() reason"), supp)


# ---------------------------------------------------------------------------
# 6. double-literal

# A file that is deliberately double-precision end to end (e.g. once-per-
# cycle innovation statistics) may declare it once near the top instead of
# annotating every line.  Must carry a reason on the same line.
DOUBLE_OK_RE = re.compile(r"//\s*bda-style:\s*double-ok\b.*\S")

# An unsuffixed floating literal: 1.5, .5, 1., 1e-4, 1.5e3 — but not 1.5f,
# not part of an identifier or version string, not hex (0x1.8p3).
FLOAT_LIT_RE = re.compile(
    r"(?<![\w.])"
    r"(?P<lit>(?:\d+\.\d*|\.\d+|\d+\.|\d+(?=[eE]))(?:[eE][+-]?\d+)?)"
    r"(?![fFlL\w.])"
)
# Deliberate double math (accumulators, config fields, casts) is signalled
# by the word `double` on the line; `constexpr` tables and `static_assert`s
# are compile-time and promote nothing at runtime.
DOUBLE_LINE_RE = re.compile(r"\bdouble\b|\bconstexpr\b|\bstatic_assert\b")
# Wrapper calls whose whole argument list is explicitly typed at the use
# site, making interior double literals fine: real(5.0 / 3.0), T(9.80665).
WRAP_CALL_RE = re.compile(r"\b(?:real|T|double|float|idx|size_t)\s*\(")


def _mask_wrapped_spans(line: str) -> str:
    """Blank the argument spans of typed wrapper calls closed on `line`."""
    for m in reversed(list(WRAP_CALL_RE.finditer(line))):
        close = cpplex.match_forward(line, m.end() - 1)
        if close > 0:
            line = line[:m.end()] + " " * (close - m.end()) + line[close:]
    return line


def check_double_literals(facts: FileFacts, tree, report: Report,
                          supp: Suppressions):
    """An unsuffixed floating literal in a bda::real hot path silently
    promotes the whole float expression to double: the paper's
    single-precision speedup evaporates one literal at a time.  Suffix it
    with 'f' or wrap it in real(...)."""
    if DOUBLE_OK_RE.search("\n".join(facts.raw.split("\n")[:25])):
        return
    for lineno, line in enumerate(facts.code.split("\n"), 1):
        if DOUBLE_LINE_RE.search(line):
            continue
        for m in FLOAT_LIT_RE.finditer(_mask_wrapped_spans(line)):
            report.add(Finding(
                facts.rel, lineno, "double-literal",
                f"unsuffixed double literal '{m.group('lit')}' in a "
                "bda::real hot path — suffix with 'f' or wrap in real(...)"),
                supp)


# ---------------------------------------------------------------------------
# 7. reinterpret-cast

def check_reinterpret_cast(facts: FileFacts, tree, report: Report,
                           supp: Suppressions):
    """All byte-level punning goes through the bda::io memcpy helpers,
    which are defined behaviour and bounds-checked; util/binary_io.cpp is
    the one file that may spell reinterpret_cast."""
    for lineno, line in enumerate(facts.code.split("\n"), 1):
        if re.search(r"\breinterpret_cast\b", line):
            report.add(Finding(
                facts.rel, lineno, "reinterpret-cast",
                "reinterpret_cast outside util/binary_io — use the "
                "bda::io put/take/append_raw helpers"), supp)


# ---------------------------------------------------------------------------
# 8. guarded-by

def check_guarded_by(facts: FileFacts, tree, report: Report,
                     supp: Suppressions):
    """A member declared BDA_GUARDED_BY(mu) (or a condition variable
    declared BDA_CV_OF(mu)) in this file or its sibling header may only be
    touched from function bodies that also name `mu` (lock it, wait on it)
    or that are annotated BDA_REQUIRES(mu), on the definition or on a
    declaration.  This is the portable cross-check for clang's
    -Wthread-safety on toolchains without clang."""
    locks = [tree.locks.get(facts.rel)]
    if facts.rel.endswith(".cpp"):
        locks.append(tree.locks.get(facts.rel[:-4] + ".hpp"))
    locks = [lk for lk in locks if lk is not None]
    guarded = {m: mu for lk in locks for m, mu in lk.guarded.items()}
    for fn in facts.functions:
        body = fn.body.slice(facts.code)
        held = set().union(*(lk.requires.get(fn.name, ()) for lk in locks))
        for member, mu in guarded.items():
            if mu in held or not re.search(rf"\b{member}\b", body) or \
                    re.search(rf"\b{mu}\b", body):
                continue
            report.add(Finding(
                facts.rel, facts.line(fn.body.start), "guarded-by",
                f"'{member}' is BDA_GUARDED_BY({mu}) but this function body "
                f"never names '{mu}' (lock it or annotate "
                f"BDA_REQUIRES({mu}))"), supp)


# ---------------------------------------------------------------------------
# 9. bad-allow

def check_bad_allow(facts: FileFacts, tree, report: Report,
                    supp: Suppressions):
    """An allow() marker without a reason suppresses nothing and is itself
    a finding: the suppression is where the justification lives."""
    report.findings.extend(supp.bad_allow_findings(facts.rel))


# name -> (scope, check).  Source discovery walks SOURCE_TREES; each scope
# narrows that to the files the check's contract covers.
ALL_CHECKS = {
    "rng-thread-discipline": (_under("src/"), check_rng_thread_discipline),
    "nondet-fp-reduction": (_under(*DETERMINISM_DIRS),
                            check_nondet_fp_reduction),
    "unordered-iteration-in-output": (_under("src/"),
                                      check_unordered_iteration),
    # Every src/ class; elsewhere only the classes declared in headers.
    "mutex-annotation": (lambda rel: rel.startswith("src/") or
                         rel.endswith(".hpp"), check_mutex_annotation),
    "unchecked-status": (_under(*CYCLE_PATH_DIRS), check_unchecked_status),
    "double-literal": (_under(*HOT_PATH_DIRS), check_double_literals),
    "reinterpret-cast": (_under(*SOURCE_TREES, exclude=PUNNING_ALLOWED),
                         check_reinterpret_cast),
    "guarded-by": (_under(*SOURCE_TREES), check_guarded_by),
    "bad-allow": (_under(*SOURCE_TREES), check_bad_allow),
}
