"""Line coverage of ``src/smflow`` under pytest, from the standard library.

No coverage package is needed: a ``sys.settrace`` tracer records the lines
run in the package's files while the tests run, and the report lists, for
each file, the function-body lines that never ran. A function-body line is
a line of an instruction of a function, lambda or comprehension, its
``def`` line included, which counts as reached when the function is
called; module and class bodies run on import and are neither traced nor
counted. Run it as a script, with pytest's arguments::

    PYTHONPATH=src python3 tools/line_coverage.py -q -p no:cacheprovider \\
        --continue-on-collection-errors

or as a plugin, ``python3 -m pytest -p line_coverage`` with ``tools`` on the
path. The exit status is pytest's. Only the pytest process is traced, not
the processes it starts, such as the worker of ``tests/conftest.py``. The
memory cases of ``tests/test_cli.py`` read tracemalloc, which also
counts what the tracer allocates, so under the tracer they may exceed their
bound; judge them from an untraced run.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "smflow"


def body_lines(path: Path) -> set:
    """The lines of every function-body instruction in the file at path."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for *_, line in code.co_lines() if line is not None)
    return lines


class LineTracer:
    """Records the line numbers run in each file of PACKAGE, by real path."""

    def __init__(self, package: Path = PACKAGE):
        self.hits = {str(p): set() for p in sorted(package.glob("*.py"))}
        self._paths = {}  # code filename -> its set in hits, or None

    def _lines_of(self, filename):
        if filename not in self._paths:
            self._paths[filename] = self.hits.get(os.path.realpath(filename))
        return self._paths[filename]

    def _global(self, frame, event, arg):
        code = frame.f_code
        lines = self._lines_of(code.co_filename)
        if lines is None or not code.co_flags & inspect.CO_OPTIMIZED:
            return None  # a module or class body: its def lines are not calls
        lines.add(code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def start(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)

    def stop(self):
        """Stop recording; the tracer that start replaced, if any, takes
        over the frames called from now on."""
        sys.settrace(self._previous)

    def unreached(self) -> dict:
        """File path -> (sorted unreached body lines, number of body lines)."""
        out = {}
        for path, hit in self.hits.items():
            lines = body_lines(Path(path))
            out[path] = (sorted(lines - hit), len(lines))
        return out


_tracer = LineTracer()


def pytest_configure(config):
    _tracer.start()


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    _tracer.stop()
    terminalreporter.section("unreached function-body lines of src/smflow")
    total = missed = 0
    for path, (lines, count) in _tracer.unreached().items():
        total, missed = total + count, missed + len(lines)
        source = Path(path).read_text().splitlines()
        terminalreporter.write_line(f"{Path(path).name}: {len(lines)} of {count}")
        for line in lines:
            terminalreporter.write_line(f"  {line:5d}  {source[line - 1].strip()}")
    terminalreporter.write_line(f"total: {missed} of {total} unreached")


def main(argv=None) -> int:
    return pytest.main(sys.argv[1:] if argv is None else argv, plugins=[sys.modules[__name__]])


if __name__ == "__main__":
    sys.exit(main())
