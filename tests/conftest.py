"""Shared pytest plumbing: collects acceptance-criterion results and prints
one pass/fail line per criterion in the terminal summary, so the outcome of
the full gate is readable at a glance even when every test passes.  The
summary also reports the size of ``src/convpow``, counted both ways the
ROADMAP's code-size item uses."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "convpow"

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance_report():
    """Record one summary line for an acceptance criterion."""

    def report(criterion: str, ok: bool, elapsed: float, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        suffix = f" -- {detail}" if detail else ""
        _acceptance_lines.append(f"{status}  {criterion}  ({elapsed:.2f}s){suffix}")

    return report


def package_size() -> tuple[int, int]:
    """Lines as ``wc -l`` counts them, and code lines: those left without
    blank lines, comment-only lines and docstrings."""
    total = code = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += len(lines)
        code += sum(1 for i, line in enumerate(lines, 1) if i not in docstrings and line.strip() and not line.strip().startswith("#"))
    return total, code


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    total, code = package_size()
    terminalreporter.section("package size")
    terminalreporter.write_line(f"src/convpow: {total} lines (wc -l), {code} code lines")
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)
