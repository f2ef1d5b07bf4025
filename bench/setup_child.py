"""Set-up cost of a fresh interpreter, run as a child of ``run.py``.

Imports ``opekit.cli``; when given a study configuration path, also
loads it with ``load_study_config`` and enumerates its oracle with
``oracle_report``. Prints one JSON line of timings in seconds and the
number of modules the CLI import added.

    PYTHONPATH=src python3 bench/setup_child.py [study.yaml]
"""

import json
import sys
import time

started = time.perf_counter()
modules_before = len(sys.modules)
import opekit.cli  # noqa: E402,F401

imported = time.perf_counter()
result = {"import_s": imported - started, "modules_loaded": len(sys.modules) - modules_before}
if len(sys.argv) > 1:
    from opekit.config import load_study_config
    from opekit.experiments import oracle_report

    before_config = time.perf_counter()
    loaded = load_study_config(sys.argv[1])
    before_oracle = time.perf_counter()
    oracle_report(loaded.config.scenario)
    done = time.perf_counter()
    result["config_s"] = before_oracle - before_config
    result["oracle_s"] = done - before_oracle
print(json.dumps(result))
