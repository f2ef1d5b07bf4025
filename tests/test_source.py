"""Invariants of the package source itself."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import opekit
import opekit.io
from opekit.estimators import ESTIMATORS
from opekit.experiments import OracleTarget, StudyRow
from opekit.io import CSV_COLUMNS, TOOL_VERSION

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
    # alone, which compile_scenario calls once per position, so the sampler,
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


def test_one_oracle_enumerates_scenarios():
    # A scenario's exact value and moments are enumerated by simulator._value and
    # simulator._moments, over the compiled tables, in experiments._oracle alone:
    # oracle_report is the one public way to them, and no helper returns a part.
    callers, defined = set(), set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        enumerators = {"_value", "_moments"} if path.name == "simulator.py" else {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "simulator"
            for alias in node.names
            if alias.name in ("_value", "_moments")
        }
        callers |= {
            f"{path.stem}.{name}"
            for name, function in _functions(tree)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in enumerators
        }
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert callers == {"experiments._oracle"}
    removed = {"true_value", "true_position_values", "population_moments", "weight_bound"}
    assert defined & removed == set()
    assert set(opekit.__all__) & removed == set()


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


def _kernel_calls(node) -> int:
    return sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "kernel"
        for n in ast.walk(node)
    )


def test_one_function_runs_kernels_on_datasets():
    # estimators._apply alone runs a registered kernel on a dataset, a scalar
    # one being the one-position case, with one kind rule and one failure rule;
    # the study engine runs kernels on blocks of replicates and records failures.
    callers, calls, defined = set(), 0, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        calls += _kernel_calls(tree)
        callers |= {f"{path.stem}.{name}" for name, function in _functions(tree) if _kernel_calls(function)}
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert callers == {"estimators._apply", "experiments._evaluate"}
    assert calls == 2
    assert defined & {"_one_row", "_raise_failed", "_check_spec_kind"} == set()


def _called_names(node) -> set[str]:
    """The names of the plain functions ``node`` calls."""
    return {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def _attributes(node) -> set[str]:
    """The attribute names ``node`` reads."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_kernels_read_a_blocks_moments():
    # A kernel reads only a bundle's reductions (estimators.Rows): the row means,
    # and the centred moments and fold reductions that Rows.reduction takes on
    # first read. No registered kernel, cross-fitting included, nor any helper it
    # calls, reduces over entries or reads them (rows.w, rows.wr), so one kernel
    # gives the same bits on a dataset's block and on the engine's range bundle.
    functions = dict(_functions(ast.parse((SOURCE / "estimators.py").read_text(encoding="utf-8"))))
    reducers = {"row_mean", "_moments"}
    reached, todo = set(), sorted({entry.kernel.__name__ for entry in ESTIMATORS.values()})
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += sorted((_called_names(functions[name]) & set(functions)) - reached)
    assert {"ips_rows", "beta_star_rows", "cross_fit_rows", "remainder_rows", "plug_in_baselines"} <= reached
    assert [name for name in sorted(reached) if _called_names(functions[name]) & reducers] == []
    assert [name for name in sorted(reached) if _attributes(functions[name]) & {"w", "wr"}] == []
    reducing = {name for name, function in functions.items() if _called_names(function) & reducers}
    assert reducing == {"Rows.__init__", "Rows.reduction", "_moments", "_fold_reductions"}


def _rows_calls(node) -> int:
    return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Rows" for n in ast.walk(node))


def test_one_way_from_a_dataset_to_a_block():
    # estimators.Rows.of alone turns a dataset into a block, and the study engine
    # builds its blocks of replicates in _replicate_range: nothing else constructs
    # a Rows from entries. A bundle without entries (a replicate range, or a slice
    # of one) is made from a block's reductions by Rows._map alone. opekit evaluate
    # reduces its log once, through that block, with no moments of its own and no
    # per-position copies of the log.
    builders, calls, bundles = set(), 0, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        calls += _rows_calls(tree)
        builders |= {f"{path.stem}.{name}" for name, function in _functions(tree) if _rows_calls(function)}
        bundles |= {f"{path.stem}.{name}" for name, function in _functions(tree) if _calls(function, "__new__")}
    assert builders == {"estimators.Rows.of", "experiments._replicate_range"}
    assert calls == 2
    assert bundles == {"estimators.Rows._map"}
    cli = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    assert _calls(cli, "empirical_moments") == _calls(cli, "position") == 0


def _gap_calls(node) -> int:
    return sum(isinstance(n, ast.Call) and "variance_gap" in _names(n.func) for n in ast.walk(node))


def test_the_oracle_holds_each_fact_once():
    # An oracle target holds its exact moments and its variance gap report and
    # copies no number out of them. experiments._oracle makes the one gap of
    # each position, in its loop over the positions, and the study grid loop
    # hands every registry entry the oracle value, ranked or not.
    assert [field.name for field in fields(OracleTarget)] == ["label", "value", "moments", "gap"]
    tree = ast.parse((SOURCE / "experiments.py").read_text(encoding="utf-8"))
    functions = dict(_functions(tree))
    assert {name for name, function in functions.items() if _gap_calls(function)} == {"_oracle"}
    loops = [node for node in ast.walk(functions["_oracle"]) if isinstance(node, ast.For)]
    assert _gap_calls(functions["_oracle"]) == sum(_gap_calls(loop) for loop in loops) == 1
    assert "ranked" not in _names(functions["_run_grid"])


def test_one_rule_checks_kernel_arguments():
    # estimators._checked_arg alone decides what a kernel's argument may be, once
    # per call: _apply after the kind check for datasets and experiments._setup
    # once per study or replicate matrix. Wrappers and spec helpers pass their
    # argument on unchecked.
    callers, defined = set(), set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        callers |= {
            f"{path.stem}.{name}"
            for name, function in _functions(tree)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and "_checked_arg" in _names(node.func)
        }
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert callers == {"estimators._apply", "experiments._setup"}
    assert "_fixed_baselines" not in defined


def test_no_bit_generator_state_is_assigned():
    # Replicate streams come from PCG64's own seeding on the words SeedSequence's
    # hash gives, not from a state loaded into a generator through the layout of
    # numpy's state dict.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and target.attr == "state"
    ]
    assert found == []


def _calls(node, name: str) -> int:
    """Calls inside ``node`` of a function or method named ``name``."""
    return sum(isinstance(n, ast.Call) and name in _names(n.func) for n in ast.walk(node))


def test_one_study_setup():
    # experiments._setup alone compiles a scenario, enumerates its oracle and builds
    # the metric table, once for every study (_run_grid) and every replicate matrix
    # (replicate_estimates); oracle_report is the public way to the oracle alone.
    # Column names come from the oracle's target labels, in _setup, with no helper.
    functions = dict(_functions(ast.parse((SOURCE / "experiments.py").read_text(encoding="utf-8"))))
    for name in ("compile_scenario", "_oracle"):
        assert {caller for caller, function in functions.items() if _calls(function, name)} == {
            "_setup",
            "oracle_report",
        }, name
    for caller in ("_run_grid", "replicate_estimates"):
        assert _calls(functions[caller], "_setup") == 1, caller
    assert {"check", "cell"} <= {arg.arg for arg in functions["_run_grid"].args.args}
    assert {"_metric_labels", "_metric_columns", "_metrics"} & set(functions) == set()


def _is_scenario_test(node) -> bool:
    """An ``isinstance`` call against ``BanditScenario`` or ``RankingEnv``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and bool(_names(node.args[1]) & {"BanditScenario", "RankingEnv"})
    )


def test_one_function_decides_a_scenarios_kind():
    # simulator._ranked alone tells a ranking from a bandit scenario and refuses
    # anything else, so nothing reads a non-scenario as a ranking first.
    sites = {
        f"{path.stem}.{name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name, function in _functions(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if any(_is_scenario_test(node) for node in ast.walk(function))
    }
    outside = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for n in ast.walk(node)
        if _is_scenario_test(n)
    ]
    assert sites == {"simulator._ranked"}
    assert outside == []


def test_one_rule_keeps_a_cells_replicates():
    # A metric keeps, in all its columns, the replicates it has no failure record
    # for (ReplicateMatrix.kept), for the study rows and the dominance pairs alike:
    # no label is parsed for its metric and no pair is chosen by finiteness.
    source = (SOURCE / "experiments.py").read_text(encoding="utf-8")
    functions = dict(_functions(ast.parse(source)))
    assert ".partition(\"[\")" not in source
    assert _calls(functions["_dominance_cells"], "isfinite") == 0
    assert _calls(functions["_dominance_cells"], "kept") == 2
    assert _calls(functions["_rows_for_matrix"], "kept") == 1


def test_study_rows_carry_the_names_they_are_written_under():
    # The CSV columns and the JSON keys are StudyRow's own field names, so no
    # table renames them on the way out.
    assert [field.name for field in fields(StudyRow)][: len(CSV_COLUMNS)] == list(CSV_COLUMNS)
    assert not hasattr(opekit.io, "rows_list")


def test_one_version_string():
    # The release bumps opekit.__version__ alone; the manifests and --version read it.
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["version"] == opekit.__version__
    assert TOOL_VERSION is opekit.__version__
