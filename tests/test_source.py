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


def _names(node) -> set[str]:
    """Every name and attribute name inside ``node``."""
    nodes = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}


def _is_propensity(node) -> bool:
    """A propensity or weight table or column, by its name."""
    words = ("p_log", "p_tgt", "prob", "propensit", "weight")
    return any(w in name and not name.endswith("bound") for name in _names(node) for w in words)


def _is_upper_bound(node) -> bool:
    """The propensity bound 1 or a declared bound, by its name."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float) and node.value == 1
    return isinstance(node, (ast.Name, ast.Attribute)) and _names(node).pop().endswith("bound")


_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _bound_sites(tree) -> list[tuple[int, int, str]]:
    """Place and kind of every use of BOUND_SLACK and every comparison against an entry bound.

    A comparison counts when it scales by the slack, or sets a propensity or
    weight against 1 or a declared bound. Positivity tests (``> 0``) decide
    support and which cells a draw can pick, and are not bound checks.
    """
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "BOUND_SLACK" and isinstance(node.ctx, ast.Load):
            sites.append((node.lineno, node.col_offset, "BOUND_SLACK"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, _ORDERINGS):
                    continue
                if _names(left) & {"slack", "BOUND_SLACK"} or _names(right) & {"slack", "BOUND_SLACK"}:
                    sites.append((node.lineno, node.col_offset, "slack comparison"))
                elif any(_is_propensity(a) and _is_upper_bound(b) for a, b in ((left, right), (right, left))):
                    sites.append((node.lineno, node.col_offset, "bound comparison"))
    return sites


def test_one_place_checks_entry_bounds():
    # The entry rules are defined once, in data._check_columns: datasets run
    # it over their columns and compile_scenario over a scenario's drawable
    # cells, so no second copy of the bounds (say, without the slack) exists.
    inside, outside = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        checks = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_check_columns"]
        allowed = {site for check in checks for site in _bound_sites(check)}
        inside += [(path.name, *site) for site in sorted(allowed)]
        outside += [(path.name, *site) for site in _bound_sites(tree) if site not in allowed]
    assert outside == []
    assert sorted(kind for *_, kind in inside) == ["BOUND_SLACK", "slack comparison", "slack comparison"]
    assert {name for name, *_ in inside} == {"data.py"}


def _is_table(node, words) -> bool:
    return any(w in name for name in _names(node) for w in words)


def _ratio_sites(tree) -> list[int]:
    """Line of every division of a target table by a logging table, by ``/`` or ``np.divide``."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            num, den = node.left, node.right
        elif isinstance(node, ast.Call) and _names(node.func) & {"divide", "true_divide"} and len(node.args) > 1:
            num, den = node.args[:2]
        else:
            continue
        if _is_table(num, ("p_tgt", "tgt_prob", "target")) and _is_table(den, ("p_log", "log_prob", "logging")):
            sites.append(node.lineno)
    return sites


def test_one_place_forms_the_weight_ratio():
    # A scenario's weights p_tgt / p_log are formed in simulator._weights
    # alone, which compile_scenario and weight_bound share, so the sampler,
    # the weight bound and the oracle read one checked table.
    tree = ast.parse((SOURCE / "simulator.py").read_text(encoding="utf-8"))
    helpers = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_weights"]
    inside = {site for helper in helpers for site in _ratio_sites(helper)}
    outside = [site for site in _ratio_sites(tree) if site not in inside]
    assert outside == []
    assert len(inside) == 1


def test_one_function_draws_the_cells():
    # How uniforms become contexts, actions and rewards is decided in
    # simulator.sample_cells alone: every sampler gathers its columns at the
    # cells it returns, so no second draw path has to agree with it bit for bit.
    tree = ast.parse((SOURCE / "simulator.py").read_text(encoding="utf-8"))
    callers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_pick"
    }
    assert callers == {"sample_cells"}
    elsewhere = [
        path.name
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "simulator.py" and "_pick" in _names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert elsewhere == []


def _functions(tree):
    """Each top-level function and method of a module, by ``name`` or ``Class.name``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef))


def _build_calls(node) -> int:
    return sum(isinstance(n, ast.Call) and "_build" in _names(n.func) for n in ast.walk(node))


def test_one_constructor_builds_every_dataset():
    # Columns in memory (from_arrays) and log files (read_logs, through
    # _from_positions) are the two ways into a dataset, and both end in
    # _Logged._build: no second in-memory format has to agree with it.
    callers, calls, defined = set(), 0, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        calls += _build_calls(tree)
        callers |= {f"{path.stem}.{name}" for name, function in _functions(tree) if _build_calls(function)}
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert callers == {"data._Logged.from_arrays", "data._from_positions"}
    assert calls == 2
    assert defined & {"validate_dataset", "LogEntry", "PositionRecord", "RankedLogEntry"} == set()


def _is_float64_cast(node) -> bool:
    """An ``np.asarray`` or ``np.array`` call with ``dtype=np.float64``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("asarray", "array")
        and _names(node.func.value) == {"np"}
        and any(k.arg == "dtype" and _names(k.value) == {"np", "float64"} for k in node.keywords)
    )


def _overflow_handlers(node) -> int:
    """The ``except`` clauses inside ``node`` that catch ``OverflowError``."""
    return sum(
        isinstance(n, ast.ExceptHandler) and n.type is not None and "OverflowError" in _names(n.type)
        for n in ast.walk(node)
    )


def test_one_module_converts_numbers():
    # _float_column, _finite and _integer in data.py alone turn an argument from
    # outside into a float64 array, a float or an int, so that no second rule
    # for what counts as a number (complex, too large, a string) can drift.
    # File formats keep their own checks: io._number and fit_loglog_slope.
    converters = {"_finite", "_integer", "_float_column"}
    defined, casts, overflow = set(), [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined |= {
            (path.stem, n.name) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in converters
        }
        if path.name != "data.py":
            casts += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _is_float64_cast(n)]
        functions = list(_functions(tree))
        sites = {f"{path.stem}.{name}" for name, function in functions if _overflow_handlers(function)}
        if _overflow_handlers(tree) > sum(_overflow_handlers(function) for _, function in functions):
            sites.add(path.stem)  # a handler outside any function
        overflow |= {"data"} if sites and path.name == "data.py" else sites
    assert defined == {("data", name) for name in converters}
    assert casts == []
    assert overflow == {"data", "io._number", "experiments.fit_loglog_slope"}
