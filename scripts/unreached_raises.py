"""List the ``raise`` and ``except`` sites in src/fedmd that the tier-1 tests never reach.

Runs the test suite in this process under a ``sys.settrace`` line collector,
with acceptance criteria 4 and 5 (the two long runs) deselected, and prints
each unreached site as ``file:line: function: source``. A ``raise`` is reached
when its line runs, an ``except`` when the first line of its body runs. Exits
1 if any site is unreached, else 0. Code that runs only in child processes is
not seen.

    python scripts/unreached_raises.py [PYTEST_ARGS ...]
"""

import argparse
import ast
import os
import sys
import threading
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fedmd")
DESELECT = (
    "tests/test_acceptance.py::test_criterion_4_desk_scale_gain",
    "tests/test_acceptance.py::test_criterion_5_noniid_knowledge_transfer",
)


@dataclass(frozen=True)
class Site:
    line: int  # the ``raise`` or ``except`` line
    probe: int  # the line whose run reaches it
    function: str  # qualified name of the enclosing function, or "<module>"
    source: str  # the site's line, stripped


def sites(source: str) -> list[Site]:
    """Every ``raise`` statement and ``except`` clause in ``source``, in line order."""
    lines = source.splitlines()
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            name = ".".join(scope) or "<module>"
            if isinstance(child, ast.Raise):
                found.append(Site(child.lineno, child.lineno, name, lines[child.lineno - 1].strip()))
            elif isinstance(child, ast.ExceptHandler):
                found.append(Site(child.lineno, child.body[0].lineno, name, lines[child.lineno - 1].strip()))
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(found, key=lambda s: s.line)


def unreached(source: str, hits: "set[int]") -> list[Site]:
    """The sites of ``source`` whose probe line is not among the executed line numbers ``hits``."""
    return [s for s in sites(source) if s.probe not in hits]


class LineCollector:
    """A pytest plugin that records every line run in ``PACKAGE``, on every thread, during the session."""

    def __init__(self):
        self.hits: dict[str, set[int]] = {}
        self._ours: dict[str, bool] = {}

    def _trace(self, frame, event, _arg):
        filename = frame.f_code.co_filename
        ours = self._ours.get(filename)
        if ours is None:
            ours = self._ours[filename] = os.path.realpath(filename).startswith(PACKAGE + os.sep)
        if not ours:
            return None
        lines = self.hits.setdefault(os.path.realpath(filename), set())

        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local

    def pytest_sessionstart(self, session):
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    _, pytest_args = parser.parse_known_args(argv)
    import pytest

    collector = LineCollector()
    args = [os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider", *pytest_args]
    for node in DESELECT:
        args += ["--deselect", node]
    status = pytest.main(args, plugins=[collector])
    if status != 0:
        print(f"the tests did not pass (pytest exit {status}); the list below is incomplete")
    left = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read()
        missed = unreached(source, collector.hits.get(path, set()))
        for s in missed:
            print(f"src/fedmd/{name}:{s.line}: {s.function}: {s.source}")
        left += len(missed)
    print(f"{left} unreached raise/except sites")
    return 1 if left or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
