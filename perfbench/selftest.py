"""Self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, on two seeds and in both modes, runs in its own
process, passes every output check and prints every metric BENCHMARK.json
names with its unit; that a planted wrong cycle count shows up as a failed
operation; that the catalogue covers every workload and metric; and that
without the program's source the benchmark exits with an error and no
result.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (1, 2)


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_result(result: dict, specs: list[dict], what: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys")
    check(result["correct"] is True and result["failed"] == 0, f"{what}: failed checks")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
    got = result["metrics"]
    check(set(got) == {m["name"] for m in specs}, f"{what}: metric names")
    for m in specs:
        entry = got[m["name"]]
        check(entry["unit"] == m["unit"], f"{what}: unit of {m['name']}")
        check(isinstance(entry["value"], (int, float)), f"{what}: value of {m['name']}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((run.HERE / "catalogue.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    check(set(names) == set(catalogue["workloads"]), "catalogue workloads")
    check({m["name"] for m in spec["end_to_end"]} == set(catalogue["end_to_end"]),
          "catalogue end-to-end metrics")
    check({m["name"] for m in spec["per_layer"]} == set(catalogue["per_layer"]["metrics"]),
          "catalogue per-layer metrics")

    for name in names:
        for seed in SEEDS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                what = f"{name} seed {seed} trace {trace}"
                proc = bench("--workload", name, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny")
                check(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}")
                *_, detail, result = proc.stdout.strip().splitlines()
                check_result(json.loads(result), spec[key], what)
                detail = json.loads(detail)
                check(detail["seed"] == seed and detail["error_rate"] == 0, f"{what}: detail")
                print(f"ok  {what}")

    def plant(workload):  # a cycle count no program produces
        workload.reference["random/reduction"] = (-1, -1)

    result, detail = run.measure("simulate", 1, 1, False, "tiny", prepare=plant)
    passes = len(detail["pass_walls_s"])
    check(result["correct"] is False and result["failed"] == passes,
          f"planted wrong cycles: {result['failed']} failed over {passes} passes")
    print("ok  planted wrong cycle count fails one operation per pass")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        bare = Path(bare)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = bench("--workload", "embed", "--seed", "1", "--seconds", "1", cwd=bare)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without the program's source the run must fail and print no result")
    print("ok  no program source: error, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
