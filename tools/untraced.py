"""A pytest plugin that line-traces the wallclimber package while the tests
run and, at the end, prints every statement of it that never ran.

A statement line is one that holds bytecode of a module, class or function
body of the package, found by compiling each source file; each line of a
statement that spans several is listed. The trace sees this process alone,
so code that runs only in a child process (`__main__.py`, run by the
CLI-process tests) is listed too. The plugin only prints: the exit status
of the test run is its own.

The trace makes the suite about four times slower.

Usage, from the repository root:
    PYTHONPATH=src:tools python -m pytest -q -p untraced
"""

import importlib.util
import os
import sys
import threading
from pathlib import Path


def _statements(code):
    """Line numbers with bytecode in `code` and the code objects it holds,
    leaving out each nested function's or class's own header line, which
    runs in the body that defines it."""
    lines = {line for _, _, line in code.co_lines() if line}  # 0: a module's RESUME
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _statements(const)
    return lines


class _Tracer:
    """The trace function, and the lines it saw run in each source file of
    the package."""

    def __init__(self, package):
        self.package = Path(package)
        self.prefix = os.path.join(package, "")
        self.ran = {}  # source path -> set of line numbers that ran
        self.files = {}  # co_filename -> source path, or None outside the package

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        path = self.files.get(name, False)
        if path is False:
            real = os.path.realpath(name)
            path = self.files[name] = real if real.startswith(self.prefix) else None
        if path is None:
            return None
        lines = self.ran.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        terminalreporter.section("statements of wallclimber that never ran")
        total = 0
        for path in sorted(self.package.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            code = compile(text, str(path), "exec")
            missed = sorted(_statements(code) - self.ran.get(str(path), set()))
            source = text.splitlines()
            for line in missed:
                terminalreporter.write_line(f"{path.relative_to(self.package.parent)}:{line}: "
                                            f"{source[line - 1].strip()}")
            total += len(missed)
        terminalreporter.write_line(f"{total} statements never ran")


def pytest_configure(config):
    spec = importlib.util.find_spec("wallclimber")  # finds it without importing it
    tracer = _Tracer(os.path.realpath(os.path.dirname(spec.origin)))
    config.pluginmanager.register(tracer, "untraced-tracer")
    threading.settrace(tracer)
    sys.settrace(tracer)
