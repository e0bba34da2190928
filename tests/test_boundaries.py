import ast
import pathlib

import rbmkit

PACKAGE_DIR = pathlib.Path(rbmkit.__file__).parent


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("rbmkit"):
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []



def _is_one(node):
    return isinstance(node, ast.Constant) and node.value == 1


def _calls_exp(node):
    return isinstance(node, ast.Call) and "exp" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def _hand_written_logistic(node):
    """True for 1/(1+exp(...)) or 1/(exp(...)+1), however exp is reached."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and _is_one(node.left) and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Add)):
        return False
    terms = [node.right.left, node.right.right]
    return any(map(_is_one, terms)) and any(map(_calls_exp, terms))


def _uses_logaddexp(node):
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(alias.name.split(".")[-1] == "logaddexp" for alias in node.names)
    return "logaddexp" in (getattr(node, "attr", None), getattr(node, "id", None))


def test_logistic_and_softplus_live_only_in_core():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _uses_logaddexp(node):
                offenders.append(f"{path.name}:{node.lineno} uses logaddexp")
            elif _hand_written_logistic(node):
                offenders.append(f"{path.name}:{node.lineno} writes 1/(1+exp(...))")
    assert offenders == []
