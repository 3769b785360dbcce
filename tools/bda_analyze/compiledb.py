"""compile_commands.json staleness probe (tools/lint.sh
--check-compiledb)."""

from __future__ import annotations

from pathlib import Path


def staleness(repo: Path, db_path: Path) -> str | None:
    """Human-readable reason the compilation database is stale, or None.

    Stale means: missing, or older than any CMakeLists.txt / CMake preset
    that could have changed the translation-unit list.  tools/lint.sh fails
    loudly on this instead of linting against yesterday's flags.
    """
    if not db_path.is_file():
        return f"{db_path} does not exist — configure first (cmake --preset release)"
    db_mtime = db_path.stat().st_mtime
    candidates = [repo / "CMakePresets.json"]
    for sub in ("", "src", "tests", "bench", "examples"):
        candidates.append(repo / sub / "CMakeLists.txt")
    candidates += list((repo / "src").glob("*/CMakeLists.txt"))
    newer = [str(c.relative_to(repo)) for c in candidates
             if c.is_file() and c.stat().st_mtime > db_mtime]
    if newer:
        return ("compilation database is older than: " + ", ".join(newer) +
                " — re-run cmake to refresh it")
    return None
