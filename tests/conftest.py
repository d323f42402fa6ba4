import ast
import sys
import tokenize
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Solver-backed rules make individual draws slow enough to trip the default
# per-example deadline; determinism matters here, wall-clock does not.
settings.register_profile("prizealloc", deadline=None)
settings.load_profile("prizealloc")

from prizealloc.axioms import SampleBudget, run_axiom_matrix
from prizealloc.cli import bundled_rules

SRC = Path(__file__).resolve().parent.parent / "src" / "prizealloc"

# Tokens the code-token count leaves out: comments and layout.
LAYOUT_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                 tokenize.DEDENT, tokenize.ENDMARKER}


@pytest.fixture(scope="session")
def default_budget():
    return SampleBudget()


@pytest.fixture(scope="session")
def axiom_matrix(default_budget):
    """The full axiom matrix over the bundled rules; computed once per run."""
    rules = bundled_rules()
    return rules, run_axiom_matrix(rules, default_budget)


def source_size() -> dict[str, tuple[int, int]]:
    """Lines and code tokens of each module of the package source."""
    sizes = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines(keepends=True)
        sizes[path.name] = (len(source), sum(
            tok.type not in LAYOUT_TOKENS
            for tok in tokenize.generate_tokens(iter(source).__next__)))
    return sizes


def largest_definitions(count: int = 5) -> list[tuple[str, int, int]]:
    """(``module.name``, code tokens, lines) of the ``count`` largest top-level
    functions and classes of the package, by code tokens; a definition's
    lines run from its first decorator to its last line."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = iter(text.splitlines(keepends=True))
        rows = [tok.start[0] for tok in tokenize.generate_tokens(lines.__next__)
                if tok.type not in LAYOUT_TOKENS]
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                found.append((f"{path.stem}.{node.name}",
                              sum(first <= row <= node.end_lineno for row in rows),
                              node.end_lineno - first + 1))
    return sorted(found, key=lambda item: -item[1])[:count]


def pytest_terminal_summary(terminalreporter):
    sizes = source_size()
    lines, tokens = map(sum, zip(*sizes.values()))
    terminalreporter.section("source size")
    terminalreporter.write_line(f"src/prizealloc: {lines:,} lines, {tokens:,} code tokens")
    for name, (module_lines, module_tokens) in sizes.items():
        terminalreporter.write_line(
            f"  {name:<12} {module_lines:>6,} lines, {module_tokens:>7,} code tokens")
    terminalreporter.write_line("largest definitions (code tokens / lines): " + ", ".join(
        f"{name} {tokens:,} / {lines}" for name, tokens, lines in largest_definitions()))
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        passed, title = RESULTS[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status} — {title}")
