"""Line coverage of src/ by the test suite, with the standard library only.

    python tests/tools/linetrace.py [extra pytest arguments]

Runs pytest on tests/ in this process under sys.settrace and
threading.settrace, then prints, per module under src/, the executable
lines (from co_lines() of the compiled module) that no test reached.
Lines reached only in child processes show as missed: the refusal of a
vanishing walk in zdsolve._roots is reached only by tests that run it
through `subprocess`.
Tracing makes the suite several times slower, so a test with a timing
bound may fail; failures are reported and the line list still printed.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= executable_lines(const)
    return lines


def main(argv: list[str]) -> int:
    hits = {str(path): set() for path in sorted(SRC.rglob("*.py"))}
    by_name: dict[str, set | None] = {}  # co_filename as imported -> its hit set, None outside src/

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(str(Path(name).resolve()))
        seen = by_name[name]
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(SRC))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\npytest exit code {code}; lines reached only in child processes "
          "(subprocess, multiprocessing) show as missed")
    for path, seen in hits.items():
        source = Path(path).read_text()
        missed = sorted(executable_lines(compile(source, path, "exec")) - seen)
        print(f"{Path(path).relative_to(ROOT)}: {len(missed)} missed: {' '.join(map(str, missed))}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
