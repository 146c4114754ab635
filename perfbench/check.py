"""The benchmark's own repeatability check.

Runs one workload twice, traced, on one seed and asserts that the counts
later changes may quote repeat exactly: ``solver.iterations``,
``io.files_read_per_pair`` and the mean EPE.  Run from the repository root:

    python3 perfbench/check.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = ("solver.iterations", "io.files_read_per_pair")
WORKLOAD = "flow-sor-65"
SEED = 7
SECONDS = 4


def run_once() -> tuple[dict, dict]:
    argv = [sys.executable, str(RUN), "--workload", WORKLOAD, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"run.py exited {done.returncode}")
    *_, details_line, result_line = done.stdout.strip().splitlines()
    return json.loads(result_line), json.loads(details_line)["details"]


def main() -> int:
    (first, first_details), (second, second_details) = (run_once() for _ in range(2))
    problems = []
    for result in (first, second):
        if not result["correct"] or result["failed"]:
            problems.append(f"a run had failed pairs: {result['failed']} of {result['attempted']}")
    for name in EXACT:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        print(f"{name}: {a!r} {b!r}")
        if a != b:
            problems.append(f"{name} differs: {a!r} != {b!r}")
    a, b = first_details["epe_mean_px"], second_details["epe_mean_px"]
    print(f"epe_mean_px: {a!r} {b!r}")
    if a != b:
        problems.append(f"epe_mean_px differs: {a!r} != {b!r}")
    for problem in problems:
        print("FAIL:", problem)
    print("PASS" if not problems else "FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
