"""Import hygiene of the package source, checked on its syntax tree."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from prizealloc import analysis, axioms

SRC = Path(__file__).resolve().parent.parent / "src" / "prizealloc"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
IMPORTS = (ast.Import, ast.ImportFrom)


def _tree(name: str) -> ast.Module:
    path = SRC / name
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _imported_modules(node) -> list[str]:
    """Last dotted component of every module an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.rsplit(".", 1)[-1] for alias in node.names]
    if node.module and node.module != "prizealloc":
        return [node.module.rsplit(".", 1)[-1]]
    return [alias.name for alias in node.names]  # from . import x


def _is_type_checking_block(stmt) -> bool:
    return (isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name)
            and stmt.test.id == "TYPE_CHECKING")


def test_no_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path.name)):
            if isinstance(fn, FUNCTIONS):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, IMPORTS)]
    assert not found, f"imports inside function bodies: {found}"


def test_solver_imports_no_higher_layer_at_runtime():
    found = []
    for stmt in _tree("solver.py").body:
        if _is_type_checking_block(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, IMPORTS):
                found += [m for m in _imported_modules(node) if m in ("rules", "axioms", "cli")]
    assert not found, f"solver.py imports {found} at run time"


def test_only_verify_witness_calls_allocate_in_axioms():
    """The checkers read prize vectors on position tuples; the id-keyed
    ``allocate`` is for re-verifying a witness from scratch."""
    found = []
    for stmt in _tree("axioms.py").body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "verify_witness":
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "allocate"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "allocate"):
                found.append(f"axioms.py:{node.lineno}")
    assert not found, f"allocate called outside verify_witness: {found}"


def test_one_witness_builder_in_axioms():
    """Every witness is built by one helper, so its fields are filled one way."""
    found = [f"axioms.py:{node.lineno}" for node in ast.walk(_tree("axioms.py"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Witness"]
    assert len(found) == 1, f"Witness(...) called at {found}"


def test_one_witness_and_one_verdict_constructor_call_in_the_package():
    """Every verdict, including the data checks in ``analysis``, is built
    by the axiom layer's helpers, so ``verify_witness`` knows every witness."""
    for name in ("Witness", "Verdict"):
        found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(_tree(path.name))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == name]
        assert len(found) == 1 and found[0].startswith("axioms.py:"), f"{name}(...) at {found}"


def test_one_suffix_extrema_scan_in_axioms():
    """The pair cells share one row scan: ``accumulate`` is called once."""
    found = [f"{stmt.name}:{node.lineno}" for stmt in _tree("axioms.py").body
             if isinstance(stmt, ast.FunctionDef) for node in ast.walk(stmt)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "accumulate"]
    assert len(found) == 1, f"accumulate(...) called at {found}"


def _callers(callee: str) -> list[str]:
    """``module.py:function`` (``module.py:line`` outside a function) for
    every call of the name or method ``callee`` in the package."""
    return [f"{path.name}:{getattr(stmt, 'name', node.lineno)}"
            for path in sorted(SRC.glob("*.py")) for stmt in _tree(path.name).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and callee == (
                node.func.attr if isinstance(node.func, ast.Attribute)
                else getattr(node.func, "id", None))]


def test_one_kernel_exit():
    """Every prize vector leaves ``rule.prizes`` through ``prize_vector``,
    which names the rule, n and E in an error and converts a non-tuple
    result, and ``allocate`` keys that vector by competitor id."""
    assert _callers("prizes") == ["rules.py:prize_vector"]
    assert "rules.py:allocate" in _callers("prize_vector")


def test_one_level_solver_path():
    """A rule's root estimate is the first probe of the one bisection,
    not a second solver: only ``solve_level_sum`` brackets the root, and
    only ``solve_level`` and the one ``prizes`` of the level rules call it,
    once each."""
    assert _callers("_bracket") == ["solver.py:solve_level_sum"]
    assert _callers("solve_level_sum") == ["rules.py:_LevelRule", "solver.py:solve_level"]


def test_one_root_estimate_source():
    """Both level rules read ``g.estimate`` off their piecewise-linear model
    of the level sum through one lookup; no closed form is kept beside it."""
    assigned = [f"{path.name}:{getattr(stmt, 'name', node.lineno)}"
                for path in sorted(SRC.glob("*.py")) for stmt in _tree(path.name).body
                for node in ast.walk(stmt) if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Attribute) and target.attr == "estimate"]
    assert assigned == ["rules.py:_estimating"]
    names = {node.name for path in sorted(SRC.glob("*.py")) for node in ast.walk(_tree(path.name))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_sp_estimate" not in names


def test_one_source_of_level_bends():
    """The level-order check of ``Parametric`` reads each level's bends off
    ``_KINDS[kind].segments``, as the level-sum models do; no second list of
    sample points is kept beside it."""
    names = {node.name for path in sorted(SRC.glob("*.py")) for node in ast.walk(_tree(path.name))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not names & {"_order_check_points", "pointwise_leq"}


def test_pair_cells_walk_their_own_faults():
    """Each pair cell's relation is written once, in its fault: the one row
    scan walks flagged rows with that fault, and no separate pair test or
    adapter is kept beside it."""
    names = {node.name for node in ast.walk(_tree("axioms.py"))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not names & {"_monotonicity_test", "_lipschitz_test", "_first_monotonicity_pair",
                        "_first_lipschitz_pair"}
    assert _callers("_first_pair") == ["axioms.py:_pair_samples"]


def test_axioms_are_listed_once_in_the_axiom_table():
    """``MATRIX_CELLS`` is derived from ``AXIOMS``, ``verify_witness`` reads
    each axiom's fault and rebuild off it with no branch on an axiom name,
    and the data-top axiom is whole in ``axioms.py``: ``analysis`` imports
    none of its private names, only the shared ``_excess``."""
    tree = _tree("axioms.py")
    cells = [stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
             for target in stmt.targets if getattr(target, "id", None) == "MATRIX_CELLS"]
    assert len(cells) == 1 and not isinstance(cells[0], (ast.Tuple, ast.List))
    verify = next(stmt for stmt in tree.body
                  if isinstance(stmt, ast.FunctionDef) and stmt.name == "verify_witness")
    compared = [f"axioms.py:{node.lineno}" for node in ast.walk(verify)
                if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators)
                if isinstance(operand, ast.Constant) and isinstance(operand.value, str)]
    named = [f"axioms.py:{node.lineno}" for node in ast.walk(verify)
             if isinstance(node, ast.Constant) and node.value in axioms.AXIOMS]
    assert not compared and not named, f"verify_witness names an axiom at {compared + named}"
    private = [alias.name for node in ast.walk(_tree("analysis.py"))
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "axioms"
               for alias in node.names if alias.name.startswith("_")]
    assert private == ["_excess"], f"analysis.py imports {private} from axioms"
    assert analysis.check_data_top_consistency is axioms.check_data_top_consistency


def test_cell_names_no_axiom():
    """What an axiom needs before its checker runs (weak monotonicity before
    the Lipschitz bound) is its ``AXIOMS`` entry's ``needs``: ``_cell``
    compares against no string and names no axiom."""
    cell = next(stmt for stmt in _tree("axioms.py").body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "_cell")
    found = [f"axioms.py:{node.lineno}" for node in ast.walk(cell)
             if isinstance(node, ast.Compare)
             for operand in (node.left, *node.comparators)
             if isinstance(operand, ast.Constant) and isinstance(operand.value, str)]
    found += [f"axioms.py:{node.lineno}" for node in ast.walk(cell)
              if isinstance(node, ast.Constant) and node.value in axioms.AXIOMS]
    assert not found, f"_cell names an axiom at {found}"


def _cli_commands() -> list[ast.FunctionDef]:
    return [stmt for stmt in _tree("cli.py").body
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_cmd_")]


def test_cli_commands_take_no_output_stream():
    """Each ``_cmd_<name>(args)`` returns its exit code, report and human
    lines; it is handed no stream to write them to."""
    commands = _cli_commands()
    assert len(commands) == 7
    streams = [f"{fn.name}({arg.arg})" for fn in commands
               for arg in (*fn.args.args, *fn.args.kwonlyargs) if arg.arg != "args"]
    assert not streams, f"commands take more than args: {streams}"


def test_cli_prints_only_in_run():
    found = [f"cli.py:{getattr(stmt, 'name', node.lineno)}" for stmt in _tree("cli.py").body
             for node in ast.walk(stmt)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"]
    assert found and set(found) == {"cli.py:run"}, f"print called in {found}"


def test_cli_declares_json_once():
    """``--json`` is declared once, for every command that has it."""
    found = [node.lineno for node in ast.walk(_tree("cli.py"))
             if isinstance(node, ast.Constant) and node.value == "--json"]
    assert len(found) == 1, f"'--json' written at lines {found}"


def test_cli_imports_no_private_package_name():
    """The CLI reaches the checkers through the public cell entry points and
    the fits through ``fit_family``: it uses only what each module offers."""
    found = [f"cli.py:{node.lineno}: {alias.name}"
             for node in ast.walk(_tree("cli.py"))
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names if alias.name.startswith("_")]
    assert not found, f"cli.py imports private package names: {found}"


def test_one_scan_driver_in_axioms():
    """Every verdict comes out of ``_scan``: the checkers only enumerate samples."""
    found = [f"axioms.py:{node.lineno}"
             for stmt in _tree("axioms.py").body
             if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "_scan")
             for node in ast.walk(stmt)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_verdict"]
    assert not found, f"_verdict(...) called outside _scan at {found}"


def test_cli_start_up_loads_no_numeric_tower():
    """Every ``prizealloc`` process imports the whole package; ``statistics``
    alone would pull in ``fractions`` and ``decimal`` as well."""
    heavy = ("statistics", "decimal", "fractions")
    code = f"import prizealloc.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_cli_start_up_loads_no_dataclasses():
    """``dataclasses`` pulls in ``inspect`` (and with it ``dis``, ``ast`` and
    ``tokenize``), and building a dataclass costs more at import than the
    package's records do."""
    slow = ("dataclasses", "inspect")
    code = f"import prizealloc.cli, sys; print([m for m in {slow!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_no_module_imports_dataclasses():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_tree(path.name))
             if isinstance(node, IMPORTS) and "dataclasses" in _imported_modules(node)]
    assert not found, f"dataclasses imported at {found}"
