#!/usr/bin/env bash
# Lint gate for the BDA tree: the repo's static analyzer (tools/bda_analyze)
# and clang-tidy (when available).  CI runs this on every push; run it
# locally before sending a change touching the concurrent cycle path.
#
# Usage:
#   tools/lint.sh                 # all stages over the whole tree
#   tools/lint.sh file1.cpp ...   # restrict clang-tidy to the given files
#   BDA_LINT_BUILD_DIR=build tools/lint.sh   # where compile_commands.json is
#   BDA_ANALYZE_JSON=out.json tools/lint.sh  # also write the findings report
#
# clang-tidy needs a compilation database; configure any preset first
# (cmake --preset release) — CMAKE_EXPORT_COMPILE_COMMANDS is always on.
# A missing or stale database is a hard failure, not a silent skip: a tidy
# pass against yesterday's flags proves nothing about today's tree.  Only a
# toolchain without clang-tidy itself skips the tidy stage with a notice
# (the analyzer and the -Werror build still gate), so the script stays
# usable in minimal containers.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir="${BDA_LINT_BUILD_DIR:-build}"
status=0

echo "== bda_analyze =="
# Pure Python, no compiler toolchain needed; BDA_ANALYZE_JSON lets CI upload
# the findings report as an artifact next to the bench JSON.
if [[ -n "${BDA_ANALYZE_JSON:-}" ]]; then
  python3 tools/bda_analyze --root . --json "${BDA_ANALYZE_JSON}" || status=1
else
  python3 tools/bda_analyze --root . || status=1
fi

echo "== clang-tidy =="
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy not found on PATH — skipping (bda_analyze still ran)."
elif [[ ! -f "${build_dir}/compile_commands.json" ]]; then
  echo "lint: no ${build_dir}/compile_commands.json — configure first:" >&2
  echo "  cmake --preset release" >&2
  status=1
elif ! python3 tools/bda_analyze --check-compiledb --build-dir "${build_dir}"
then
  echo "lint: ${build_dir}/compile_commands.json is stale — reconfigure:" >&2
  echo "  cmake --preset release" >&2
  status=1
else
  if [[ $# -gt 0 ]]; then
    files=("$@")
  else
    # src/ gets the strict root profile; tests/ and bench/ get the relaxed
    # per-directory .clang-tidy files (clang-tidy uses the nearest one).
    mapfile -t files < <(git ls-files 'src/**/*.cpp' 'src/**/*.hpp' \
                                      'tests/**/*.cpp' 'bench/**/*.cpp')
  fi
  if ! clang-tidy -p "${build_dir}" --quiet "${files[@]}"; then
    status=1
  fi
fi

if [[ ${status} -ne 0 ]]; then
  echo "lint: FAILED" >&2
else
  echo "lint: OK"
fi
exit ${status}
