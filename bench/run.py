"""opekit benchmark: end-to-end CLI timings, or a traced per-layer run.

Run from the repository root; the program is imported from ``src``:

    python3 bench/run.py --workload study-scalar --seed 20260823 --seconds 20 --trace 0

With ``--trace 0`` each repeat of the workload's CLI command is a fresh
process, and the run reports the end-to-end metrics of ``BENCHMARK.json``.
With ``--trace 1`` it replays the workload in process with spans around
each call into ``src/opekit`` (see ``layers.py``) and reports the
per-layer metrics. Every run checks the program's outputs. The last line
of standard output is the result object; the line before it records the
machine, the samples behind each median and any failed check. A
human-readable summary goes to standard error. ``bench/README.md``
explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Master seed of the acceptance gate.
DEFAULT_SEED = 20260823
GRID = [400, 1600, 6400]
REPLICATES = 1000
LOG_N = 200_000
SCALAR_ESTIMATORS = ["ips", "snips", "beta-ips:0.1925", "beta-star-ips", "cf-beta-star-ips", "remainder-sq"]
EVALUATE_OPTIONS = ["--estimators", "ips,snips,beta-star-ips,cf-beta-star-ips", "--true-value", "0.26", "--gap"]
# Warm-ups run the same command on less work, so bytecode caches exist before timing.
WARMUP_GRID, WARMUP_REPLICATES, WARMUP_LOG_N = [400], 100, 2_000

# Measured times are scaled by REFERENCE_S / (time of reference.py run alongside),
# which takes out most of the drift in a shared machine's speed; see README.md.
REFERENCE_S = 0.7
SETUP_REPEATS = 7
SETUPS_PER_REPEAT = 2
MIN_REPEATS = 4
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SCOPE = (
    "only this benchmark's own processes are measured; no machine-wide tracing, "
    "cache dropping or CPU pinning"
)


@dataclass(frozen=True)
class Output:
    """What one repeat of a workload's command produced."""

    digests: dict
    fingerprint: str
    attempted: int
    failed: int
    payload: object


def write_study_config(path: Path, kind: str, environment: str, estimators, grid, replicates: int, seed: int) -> None:
    config = {"study": kind, "environment": environment, "n_grid": grid, "replicates": replicates, "seed": seed}
    if estimators:
        config["estimators"] = estimators
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


class StudyWorkload:
    """``opekit study`` on a generated configuration."""

    def __init__(self, name: str, kind: str, environment: str, estimators, jobs: int, own_pass: str, check: str) -> None:
        self.name = name
        self.kind = kind
        self.environment = environment
        self.estimators = estimators
        self.jobs = jobs
        self.own_pass = own_pass
        self.check_name = check
        self.config_name = f"{name}.yaml"

    def prepare(self, work: Path, seed: int) -> None:
        write_study_config(work / self.config_name, self.kind, self.environment, self.estimators, GRID, REPLICATES, seed)
        write_study_config(
            work / "warmup.yaml", self.kind, self.environment, self.estimators, WARMUP_GRID, WARMUP_REPLICATES, seed
        )

    def _argv(self, config: str, out_dir: str) -> list[str]:
        return ["study", "--config", config, "--out-dir", out_dir, "--jobs", str(self.jobs)]

    def warmup_argv(self, seed: int) -> list[str]:
        return self._argv("warmup.yaml", "warmup")

    def argv(self, seed: int) -> list[str]:
        return self._argv(self.config_name, "out")

    def output(self, work: Path) -> Output:
        import checks

        stem = work / "out" / self.name
        digests, fingerprint, payload = checks.study_digests(stem.with_suffix(".csv"), stem.with_suffix(".json"))
        cells = sum(row["n_used"] + row["n_failed"] for row in payload["rows"])
        failed = sum(row["n_failed"] for row in payload["rows"])
        return Output(digests, fingerprint, cells, failed, payload)

    def check(self, output: Output, work: Path, seed: int) -> list[str]:
        import checks

        return getattr(checks, self.check_name)(output.payload)


def simulate_argv(n: int, seed: int, out: str) -> list[str]:
    return ["simulate", "--preset", "flip2", "--n", str(n), "--seed", str(seed), "--out", out]


class SimulateWorkload:
    """``opekit simulate`` of a large flip2 log file."""

    name = "logs-write"
    own_pass = "logs"
    config_name = None
    jobs = 1

    def prepare(self, work: Path, seed: int) -> None:
        pass

    def warmup_argv(self, seed: int) -> list[str]:
        return simulate_argv(WARMUP_LOG_N, seed, "warmup.jsonl")

    def argv(self, seed: int) -> list[str]:
        return simulate_argv(LOG_N, seed, "logs.jsonl")

    def output(self, work: Path) -> Output:
        import checks

        digests = {"logs": checks.sha256((work / "logs.jsonl").read_bytes())}
        manifest = json.loads((work / "logs.jsonl.manifest.json").read_text(encoding="utf-8"))
        return Output(digests, manifest["fingerprint"], 0, 0, None)

    def check(self, output: Output, work: Path, seed: int) -> list[str]:
        import checks

        return checks.check_logs_file(work / "logs.jsonl", seed, LOG_N)


class EvaluateWorkload:
    """``opekit evaluate`` of the file ``opekit simulate`` wrote, made untimed in set-up."""

    name = "logs-read"
    own_pass = "logs"
    config_name = None
    jobs = 1

    def prepare(self, work: Path, seed: int) -> None:
        run = run_cli(simulate_argv(LOG_N, seed, "logs.jsonl"), work)
        if run["returncode"] != 0:
            raise RuntimeError(f"making the input log file failed: {run['stderr']}")

    def warmup_argv(self, seed: int) -> list[str]:
        return self.argv(seed)

    def argv(self, seed: int) -> list[str]:
        return ["evaluate", "--in", "logs.jsonl", *EVALUATE_OPTIONS, "--out", "report.json"]

    def output(self, work: Path) -> Output:
        import checks

        text = (work / "report.json").read_bytes()
        report = json.loads(text)
        manifest = json.loads((work / "logs.jsonl.manifest.json").read_text(encoding="utf-8"))
        failed = sum(entry["value"] is None for entry in report["estimates"])
        digests = {"evaluate_report": checks.sha256(text)}
        return Output(digests, manifest["fingerprint"], len(report["estimates"]), failed, report)

    def check(self, output: Output, work: Path, seed: int) -> list[str]:
        import checks

        return checks.check_evaluate(output.payload, seed, LOG_N)


WORKLOADS = {
    workload.name: workload
    for workload in (
        StudyWorkload("study-scalar", "mc", "flip2", SCALAR_ESTIMATORS, 1, "scalar", "check_scalar_study"),
        StudyWorkload("study-ranked-jobs2", "dominance", "rankflip2x2", None, 2, "ranked", "check_dominance"),
        SimulateWorkload(),
        EvaluateWorkload(),
    )
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("OPEKIT_OUT_DIR", None)
    # Let the warm-up write bytecode caches, as an installed package has them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def reap(proc: subprocess.Popen):
    """Wait for ``proc`` without polling, killing it after CHILD_TIMEOUT_S; return its resource usage.

    ``os.wait4`` blocks until the child exits, so the caller's clock stops
    when it does. (``Popen.wait`` with a timeout polls, in steps of up to
    50 ms.) The usage covers the children it reaped, such as ``--jobs``
    workers; ``ru_maxrss`` is in KiB.
    """
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_cli(args: list[str], work: Path) -> dict:
    """One ``python -m opekit`` process: wall time, peak RSS of its process tree, exit code."""
    err_path = work / "cli.stderr"
    with open(err_path, "w+", encoding="utf-8") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "opekit", *args],
            cwd=work,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        usage = reap(proc)
        wall = time.perf_counter() - started
        err.seek(0)
        stderr = err.read()
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode, "stderr": stderr}


def run_reference(work: Path, copies: int) -> float:
    """Wall time of ``copies`` concurrent ``reference.py`` processes, one per worker of the workload."""
    started = time.perf_counter()
    procs = [
        subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "reference.py")],
            cwd=work,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for _ in range(copies)
    ]
    for proc in procs:
        reap(proc)
    wall = time.perf_counter() - started
    if any(proc.returncode for proc in procs):
        raise RuntimeError(f"reference task exited {[proc.returncode for proc in procs]}")
    return wall


def run_setup(config: Path | None, work: Path) -> dict:
    """Set-up timings from a fresh interpreter (see ``setup_child.py``)."""
    args = [sys.executable, str(BENCH_DIR / "setup_child.py")]
    if config is not None:
        args.append(str(config))
    done = subprocess.run(args, cwd=work, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def end_to_end(workload, work: Path, seed: int, seconds: float, record: bool) -> tuple[dict, dict]:
    """Warm up, time set-up, repeat the command for ``seconds``, check the outputs."""
    import checks

    workload.prepare(work, seed)
    warmup = run_cli(workload.warmup_argv(seed), work)
    if warmup["returncode"] != 0:
        raise RuntimeError(f"warm-up exited {warmup['returncode']}: {warmup['stderr']}")
    run_reference(work, workload.jobs)  # untimed, like the warm-up
    config = work / workload.config_name if workload.config_name else None

    # Each cycle runs the command, the reference, then set-up interpreters, so
    # set-up is sampled across the whole run and next to a reference time.
    runs, setups, outputs, problems = [], [], [], []
    before = run_reference(work, workload.jobs)
    started = time.perf_counter()
    while len(runs) < MIN_REPEATS or time.perf_counter() - started < seconds:
        run = run_cli(workload.argv(seed), work)
        after = run_reference(work, workload.jobs)
        run["reference_s"] = (before + after) / 2.0
        runs.append(run)
        for _ in range(SETUPS_PER_REPEAT):
            setup = run_setup(config, work)
            total = sum(setup[key] for key in ("import_s", "config_s", "oracle_s") if key in setup)
            setups.append({"setup_s": total, "reference_s": after})
        before = after
        if run["returncode"] != 0:
            problems.append(f"repeat {len(runs) - 1} exited {run['returncode']}: {run['stderr'].strip()}")
            break
        outputs.append(workload.output(work))
    # One operation per CLI run, plus the cells or estimates each run reports.
    attempted = len(runs) + sum(output.attempted for output in outputs)
    failed = sum(run["returncode"] != 0 for run in runs) + sum(output.failed for output in outputs)
    if not problems:
        recorded = checks.load_recorded()
        first = outputs[0]
        problems += checks.check_repeats_identical([output.digests for output in outputs])
        problems += checks.check_recorded(recorded, first.fingerprint, first.digests)
        problems += workload.check(first, work, seed)
        if record and not problems:
            recorded.setdefault(first.fingerprint, {}).update(first.digests)
            checks.DIGESTS_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if problems:
        failed += 1
    samples = {
        "wall_s": [run["wall_s"] for run in runs],
        "reference_s": [run["reference_s"] for run in runs],
        "setup_s": [setup["setup_s"] for setup in setups],
        "setup_reference_s": [setup["reference_s"] for setup in setups],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }
    metrics = {
        "wall_s": (statistics.median(run["wall_s"] * REFERENCE_S / run["reference_s"] for run in runs), "s"),
        "setup_s": (statistics.median(x["setup_s"] * REFERENCE_S / x["reference_s"] for x in setups), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
    }
    return metrics, {"attempted": attempted, "failed": failed, "problems": problems, "samples": samples}


PER_LAYER_UNITS = {
    "cli.modules_loaded": "count",
    "estimators.calls": "count",
    "io.logs_bytes": "B",
    "io.study_bytes": "B",
    "simulator.rows_per_s": "1/s",
    "io.read_records_per_s": "1/s",
    "experiments.parallel_efficiency": "ratio",
    "experiments.useful_frac": "ratio",
}


def traced(workload, work: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    """Pairs of untraced and traced replays for ``seconds``; medians of their metrics."""
    import layers

    if workload.config_name:
        workload.prepare(work, seed)
        config = work / workload.config_name
    else:
        # Workloads without a study still report the configuration and oracle layers.
        config = work / "probe.yaml"
        write_study_config(config, "mc", "flip2", SCALAR_ESTIMATORS, GRID, REPLICATES, seed)
    setups = [run_setup(config, work) for _ in range(SETUP_REPEATS)]
    out_dir = work / "trace"
    out_dir.mkdir()

    # Untimed warm-up: every pass once at probe size.
    _, problems = layers.run_passes(layers.Tracer(enabled=False), None, seed, out_dir)
    per_pair, overheads = [], []
    attempted = failed = 0
    started = time.perf_counter()
    while not per_pair or time.perf_counter() - started < seconds:
        tracers = [layers.Tracer(enabled=False), layers.Tracer(enabled=True)]
        if len(per_pair) % 2:
            tracers.reverse()
        walls = {}
        for tracer in tracers:
            walls[tracer.enabled], pass_problems = layers.run_passes(tracer, workload.own_pass, seed, out_dir)
            problems += pass_problems
        tracer = tracers[0] if tracers[0].enabled else tracers[1]
        per_pair.append(layers.layer_metrics(tracer))
        overheads.append(walls[True] - walls[False])
        attempted += tracer.counts["calls"]
        failed += tracer.counts.get("failed_calls", 0)

    metrics = {
        "cli.import_s": statistics.median(setup["import_s"] for setup in setups),
        "cli.modules_loaded": statistics.median(setup["modules_loaded"] for setup in setups),
        "config.load_s": statistics.median(setup["config_s"] for setup in setups),
        "simulator.oracle_s": statistics.median(setup["oracle_s"] for setup in setups),
        "trace.overhead_s": statistics.median(overheads),
    }
    for name in per_pair[0]:
        metrics[name] = statistics.median(pair[name] for pair in per_pair)
    if problems:
        failed += 1
    result = {name: (value, PER_LAYER_UNITS.get(name, "s")) for name, value in metrics.items()}
    return result, {"attempted": attempted, "failed": failed, "problems": problems, "samples": {"pairs": len(per_pair)}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"], help="one workload, or all of them in turn"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="store this run's output digests in digests.json under its fingerprint"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(name: str, args) -> int:
    """Measure one workload and print its record and result lines; return the exit code."""
    workload = WORKLOADS[name]
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, run = traced(workload, work, args.seed, args.seconds)
        else:
            metrics, run = end_to_end(workload, work, args.seed, args.seconds, args.record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run still uses it

    correct = not run["problems"]
    info = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "scope": SCOPE,
        "samples": run["samples"],
        "problems": run["problems"],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}", file=sys.stderr)
    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    result = {
        "correct": correct,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opekit" / "__init__.py").is_file():
        print(f"error: no opekit sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
