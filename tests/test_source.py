"""Invariants of the package source itself."""

import ast
from pathlib import Path

import opekit

SOURCE = Path(opekit.__file__).resolve().parent


def test_no_assert_statements():
    # Checks must raise: ``python -O`` strips assert statements.
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_var_w(node) -> bool:
    """``var_w``, ``x.var_w`` or a subscript of either."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Name) and node.id == "var_w") or (
        isinstance(node, ast.Attribute) and node.attr == "var_w"
    )


def _is_zero(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0


# The comparisons that tell zero apart from a positive variance, that is, the
# ones that decide degeneracy. ``< 0`` and ``>= 0`` reject negative variances.
_DEGENERACY_OPS = (ast.Eq, ast.NotEq, ast.Gt, ast.LtE)


def _plug_in_sites(tree) -> list[tuple[int, str]]:
    """Line and kind of every degeneracy comparison of ``var_w`` and every ratio over ``var_w``."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                pair = (_is_var_w(left) and _is_zero(right)) or (_is_zero(left) and _is_var_w(right))
                if pair and isinstance(op, _DEGENERACY_OPS):
                    sites.append((node.lineno, "var_w compared with zero"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and _is_var_w(node.right):
            sites.append((node.lineno, "ratio over var_w"))
    return sites


def test_one_place_decides_degenerate_weights():
    # Zero weight variance, where the plug-in baseline cov / var_w is
    # undefined, is decided and the ratio formed in plug_in_baselines alone.
    inside, outside = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        helpers = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "plug_in_baselines"]
        allowed = {site for helper in helpers for site in _plug_in_sites(helper)}
        inside += [(path.name, *site) for site in sorted(allowed)]
        outside += [(path.name, *site) for site in _plug_in_sites(tree) if site not in allowed]
    assert outside == []
    assert sorted(kind for _, _, kind in inside) == ["ratio over var_w", "var_w compared with zero"]
