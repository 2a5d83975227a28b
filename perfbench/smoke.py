"""Fast smoke test of the benchmark harness at the criterion-9 shape.

Usage: python3 perfbench/smoke.py

Runs every workload untraced and traced on 9 meters x 150 intervals for a
second each and checks that:

- the last stdout line is the result object with exactly its four keys,
  reports no failure, and carries every end-to-end (untraced) or
  per-layer (traced) metric of BENCHMARK.json with its unit;
- the report names every workload's metrics (train_step_ms, eval_qps,
  recommend_p99_ms, ...) with their units;
- BENCHMARK.json agrees with metrics.py and workloads.py;
- without the parkrank sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check holds.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
BENCHMARK = bootstrap.ROOT / "BENCHMARK.json"


def run_bench(run_py: Path, workload: str, trace: int):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def check_spec(spec, metrics, workloads) -> list[str]:
    errors = []
    want_e2e = [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in metrics.END_TO_END
    ]
    if spec["end_to_end"] != want_e2e:
        errors.append("BENCHMARK.json end_to_end differs from metrics.py")
    want_layers = [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in metrics.LAYERS
    ]
    if spec["per_layer"] != want_layers:
        errors.append("BENCHMARK.json per_layer differs from metrics.py")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if whys != {name: cls.why for name, cls in workloads.WORKLOADS.items()}:
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    return errors


def check_result(proc, expected, named) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"run not correct: {proc.stderr[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number of at least 1")
    got = result["metrics"]
    if sorted(got) != sorted(expected):
        errors.append(f"metric names differ: {sorted(set(got) ^ set(expected))}")
    for name, unit in expected.items():
        entry = got.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            errors.append(f"{name}: unit {entry.get('unit')!r}, want {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
    report = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and line.startswith("  "):
            report[parts[0]] = parts[2]
    for name, unit in named.items():
        if report.get(name) != unit:
            errors.append(f"report line {name}: unit {report.get(name)!r}, want {unit!r}")
    return errors


def check_missing_source() -> list[str]:
    """A tree holding only BENCHMARK.json and perfbench/ must not run."""
    bootstrap.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=bootstrap.WORK))
    try:
        shutil.copy(BENCHMARK, bare / BENCHMARK.name)
        shutil.copytree(
            HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = run_bench(bare / HERE.name / "run.py", "c8-train", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bootstrap.WORK.rmdir()
        except OSError:
            pass
    errors = []
    if proc.returncode == 0:
        errors.append("benchmark ran without the parkrank sources")
    if '"correct"' in proc.stdout:
        errors.append("benchmark printed a result without the parkrank sources")
    return errors


def main() -> int:
    bootstrap.import_parkrank()
    import metrics
    import workloads

    spec = json.loads(BENCHMARK.read_text())
    errors = check_spec(spec, metrics, workloads)
    e2e = {n: u for n, u, _, _, _ in metrics.END_TO_END}
    layers = {n: u for n, u, _, _ in metrics.LAYERS}
    for name, cls in workloads.WORKLOADS.items():
        named = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
        named.update(dict(cls.labels.values()))
        if name == "c8-eval":
            named["eval_qps"] = "1/s"
        for trace, expected in ((0, e2e), (1, layers)):
            proc = run_bench(HERE / "run.py", name, trace)
            found = check_result(proc, expected, named if trace == 0 else {})
            errors += [f"{name} trace={trace}: {e}" for e in found]
    errors += check_missing_source()
    for line in errors:
        print(f"FAILED: {line}")
    print("smoke ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
