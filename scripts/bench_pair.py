#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against the working tree.

The base revision is unpacked with ``git archive`` into a temporary directory,
so the repository's ``.git`` is never touched. For each workload the script
runs ``bench/run.py --workload W --seed S --seconds T`` on both sides for each
seed, one pair per seed. The side that runs first alternates from pair to
pair, so a drift in machine speed does not favour either side. It writes the
per-side values, median and quartiles of every end-to-end metric listed in
``BENCHMARK.json``, in how many pairs the working tree was better, the median
of the per-pair working-tree/base ratios, a verdict, a gain and a
regression, to one JSON file:

    python scripts/bench_pair.py --base HEAD --seeds 1:10 --seconds 10 --out BENCH.json

The verdict reads the metric's ``bound`` from ``BENCHMARK.json`` as a
fraction of the base median, the margin. ``worse``: the working tree's median
is worse than the base median by more than the margin. ``unresolved``: the
base runs' interquartile range exceeds the margin, and not every working-tree
run beats every base run. ``no_worse``: any other case. The ``worse`` and
``unresolved`` entries are also printed to stderr.

The gain reads ``met`` when the working tree is better in at least nine
tenths of the pairs, ties counting for neither side, and its median beats
the base median by more than the base runs' interquartile range; otherwise
``not_met``. The regression applies the same rule the other way: ``met``
when the working tree is worse in at least nine tenths of the pairs and its
median is worse by more than the base IQR. It flags a consistent slowdown
that stays inside the bound, which the verdict lets pass; such metrics are
also printed to stderr.

The two runs of a pair follow each other, so their ratio cancels a drift in
machine speed between pairs, which the median of each side does not. Compare
only pairs taken in one session on one machine; the file records the machine
it ran on.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unpack(rev: str, dest: Path) -> str:
    """Extract ``rev``'s tree into ``dest``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def bench(root: Path, workload: str, seed: int, seconds: int, side: str) -> dict:
    """One ``bench/run.py`` run in checkout ``root``: its closing JSON line.

    A run that exits nonzero, as one with a failed output check does, ends
    the script: its numbers must not feed the medians.
    """
    result = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"bench/run.py failed (exit {result.returncode}) on workload {workload}, "
            f"seed {seed}, side {side}:\n{result.stderr}"
        )
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench/run.py gave no result in {root}:\n{result.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(base: list[float], change: list[float], bound: float, lower: bool) -> str:
    """``worse``, ``unresolved`` or ``no_worse`` for one metric's runs, as above."""
    base_s = summary(base)
    margin = bound * abs(base_s["median"])
    shift = statistics.median(change) - base_s["median"]
    if (shift if lower else -shift) > margin:
        return "worse"
    every_run_better = max(change) < min(base) if lower else min(change) > max(base)
    if base_s["iqr"] > margin and not every_run_better:
        return "unresolved"
    return "no_worse"


def gain(base: list[float], change: list[float], lower: bool) -> str:
    """``met`` or ``not_met`` for one metric's paired runs, as above."""
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    base_s = summary(base)
    shift = statistics.median(change) - base_s["median"]
    beats = (-shift if lower else shift) > base_s["iqr"]
    return "met" if wins >= 0.9 * len(base) and beats else "not_met"


def seed_list(text: str) -> list[int]:
    if ":" in text:
        lo, hi = (int(part) for part in text.split(":"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append",
                    help="workload name; repeat for several (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1:10", help="A:B (inclusive) or a comma list")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    if len(seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    out = {
        "base": None,
        "change": "working tree",
        "seconds": args.seconds,
        "seeds": seeds,
        "machine": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            # The pinned digests and every timing follow numpy's float math.
            "numpy": importlib.metadata.version("numpy"),
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        base_root = Path(tmp)
        out["base"] = unpack(args.base, base_root)
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i, seed in enumerate(seeds):
                sides = [("base", base_root), ("change", ROOT)]
                for side, root in sides if i % 2 == 0 else sides[::-1]:
                    res = bench(root, workload, seed, args.seconds, side)
                    runs[side].append(res)
                    print(f"{workload} seed {seed} {side}: "
                          f"job_s_p50 {res['metrics']['job_s_p50']['value']:.4f} "
                          f"failed {res['failed']}", file=sys.stderr)
            entry = {
                "first_side": ["base" if i % 2 == 0 else "change" for i in range(len(seeds))],
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                "metrics": {},
            }
            for name, m in metrics.items():
                base = [r["metrics"][name]["value"] for r in runs["base"]]
                change = [r["metrics"][name]["value"] for r in runs["change"]]
                lower = m["better"] == "lower"
                entry["metrics"][name] = {
                    "unit": m["unit"],
                    "better": m["better"],
                    "base": summary(base),
                    "change": summary(change),
                    "change_better_pairs": sum(
                        (c < b) if lower else (c > b) for b, c in zip(base, change)
                    ),
                    "pair_ratio_median": statistics.median(
                        c / b for b, c in zip(base, change)
                    ),
                    "verdict": verdict(base, change, m["bound"], lower),
                    "gain": gain(base, change, lower),
                    "regression": gain(base, change, not lower),
                }
            out["workloads"][workload] = entry
            for name, result in entry["metrics"].items():
                flags = [result["verdict"]] if result["verdict"] != "no_worse" else []
                if result["regression"] == "met":
                    flags.append("regression")
                if flags:
                    print(f"{workload} {name}: {', '.join(flags)} (median "
                          f"{result['base']['median']:.6g} -> {result['change']['median']:.6g}, "
                          f"base IQR {result['base']['iqr']:.6g}, bound {metrics[name]['bound']})",
                          file=sys.stderr)
    args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
