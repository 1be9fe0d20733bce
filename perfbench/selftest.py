#!/usr/bin/env python3
"""Self-test of the benchmark: a minimal-size run of every workload.

Each workload runs once untraced and once traced at ``--scale mini``. A run
passes when it emits exactly the metrics ``BENCHMARK.json`` names for its
mode, each with its unit, and when every output check passed. From the
repository root:

    python3 perfbench/selftest.py

Exits 0 when every run passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "mini"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}; see perfbench/_out/")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(set(expected) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(expected)):
        problems.append(f"unexpected metric {name}")
    for name in sorted(set(got) & set(expected)):
        if got[name] != expected[name]:
            problems.append(f"{name}: unit {got[name]!r}, want {expected[name]!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failed = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace, expected[trace])
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
