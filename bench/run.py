#!/usr/bin/env python3
"""beeloop benchmark: one workload, timed through the public CLI entry point.

    python3 bench/run.py --workload desk_case --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; beeloop is loaded from the checkout's
``src``. With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics (setup_s, job_s_p50, seeds_per_min, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics of a separate traced run. Any
failed output check makes ``correct`` false and the exit code 1. See
bench/README.md for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, prepare_inputs

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"
WORKER_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "beeloop" / "cli.py").is_file():
        print(f"error: no beeloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    scratch = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        prepare_inputs(ROOT, scratch / "inputs")
        result_file = scratch / "result.json"
        subprocess.run(
            [
                sys.executable, str(Path(__file__).with_name("worker.py")),
                "--root", str(ROOT), "--workload", workload.name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scratch", str(scratch), "--result", str(result_file),
            ],
            check=True, stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
        )
        res = json.loads(result_file.read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"error: benchmark did not complete: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in res["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted, failed = res["attempted"], res["failed"]
    if args.trace == 0:
        times = res["job_s"]
        metrics = {
            "setup_s": (statistics.median(res["setup_s"]), "s"),
            "job_s_p50": (statistics.median(times) if times else 0.0, "s"),
            "seeds_per_min": (60.0 * len(times) / sum(times) if times else 0.0, "1/min"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        print(f"{workload.name}: {len(times)} timed jobs, "
              f"failed_frac {failed / attempted} ({failed}/{attempted})")
    else:
        metrics = {k: tuple(v) for k, v in res.get("layers", {}).items()}
        print(f"{workload.name}: traced run, spans in {os.path.relpath(res['spans_file'], ROOT)}, "
              f"failed_frac {failed / attempted} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
