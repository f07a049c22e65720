"""Benchmark child process: runs one workload's jobs through ``beeloop.cli.main``.

Started by ``run.py``; not meant to be run by hand. Loads beeloop from the
checkout's ``src``, checks outputs, times jobs in a closed loop with one
client, and writes its findings as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, layer_metrics
from workloads import REFERENCE_SEED, WORKLOADS, check_digests, job_seeds, tree_digests

SETUP_PROBES = 9

# What every CLI invocation pays before its first map parse.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import beeloop.cli
from beeloop import config
config.weather_for(config.load_scenario(sys.argv[2]))
"""


class Runner:
    """Runs jobs and counts attempts; an attempt fails if any check on it fails."""

    def __init__(self, cli, workload, inputs: Path):
        self.cli = cli
        self.workload = workload
        self.config = str(inputs / workload.config)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, what: str, errors: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += [f"{what}: {e}" for e in errors]
        return not errors

    def run(self, seed: int, out: Path) -> tuple[float, list[str]]:
        """One job, timed; a job that raises, exits nonzero or fails a check fails."""
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        try:
            for argv in self.workload.commands(self.config, seed, out):
                code = self.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"beeloop {' '.join(argv)} exited {code}")
        except (Exception, SystemExit) as err:
            traceback.print_exc()
            return time.perf_counter() - start, [repr(err)]
        elapsed = time.perf_counter() - start
        return elapsed, self.workload.check(out)


def setup_probe(src: Path, config: str) -> float:
    """Wall time of a fresh interpreter importing beeloop.cli and loading ``config``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(src), config],
                   check=True, stdin=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def same_tree(a: Path, b: Path) -> list[str]:
    return [] if tree_digests(a) == tree_digests(b) else [f"{a.name} and {b.name} differ"]


def check_golden(root: Path, scratch: Path) -> list[str]:
    """Reproduce tests/golden/season_desk_seed1.csv through run_season."""
    from beeloop.cli import default_config_path
    from beeloop.foraging import ColonyParams, run_season, write_season_csv
    from beeloop.landscape import derive_patches, load_map
    from beeloop.scouting import ScoutParams
    from beeloop.weather import synth_weather

    grid = load_map(default_config_path().parent / "field_desk.map")
    record = run_season(grid, derive_patches(grid), synth_weather(42), None,
                        ColonyParams(), 7, ScoutParams(), seed=1)
    golden = root / "tests" / "golden" / "season_desk_seed1.csv"
    out = scratch / golden.name
    write_season_csv(out, record)
    if out.read_bytes() != golden.read_bytes():
        return ["season differs from tests/golden/season_desk_seed1.csv"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import beeloop
    import beeloop.cli

    if src not in Path(beeloop.__file__).resolve().parents:
        print(f"beeloop loaded from {beeloop.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runner = Runner(beeloop.cli, workload, args.scratch / "inputs")
    jobs = args.scratch / "jobs"
    jobs.mkdir()

    try:
        golden_errors = check_golden(args.root, args.scratch)
    except Exception as err:
        traceback.print_exc()
        golden_errors = [repr(err)]
    runner.attempt("golden", golden_errors)

    # Warm-up job on the reference seed, checked against the pinned digests.
    ref = jobs / "reference"
    _, errors = runner.run(REFERENCE_SEED, ref)
    runner.attempt("reference", errors or check_digests(workload, tree_digests(ref)))

    seeds = job_seeds(workload.name, args.seed)
    result: dict = {}
    if args.trace == 0:
        config = runner.config
        times, setup = [], []
        first, first_seed = jobs / "first", next(seeds)
        seed, out = first_seed, first
        start = time.perf_counter()
        while True:
            elapsed, errors = runner.run(seed, out)
            if runner.attempt(f"seed {seed}", errors):
                times.append(elapsed)
            progress = min(1.0, (time.perf_counter() - start) / args.seconds)
            # Setup probes are spread over the run, so they sample the same
            # machine conditions as the jobs do.
            while len(setup) < SETUP_PROBES * progress:
                setup.append(setup_probe(src, config))
            if out.name == "rerun":
                break
            if time.perf_counter() - start < args.seconds:
                seed, out = next(seeds), jobs / "job"
            else:
                # The closing job reruns the first seed: its tree must be byte-identical.
                seed, out = first_seed, jobs / "rerun"
        runner.attempt("rerun", same_tree(first, jobs / "rerun"))
        result.update(job_s=times, setup_s=setup)
    else:
        # A fixed job count, so traced counts repeat exactly for a given seed.
        n_jobs = max(1, round(args.seconds / (2 * workload.nominal_job_s)))
        rec = SpanRecorder()
        plain_s, traced_s = [], []
        for k in range(n_jobs):
            seed = next(seeds)
            # Alternate which side runs first, so drift does not bias the overhead.
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if not traced:
                    elapsed, errors = runner.run(seed, jobs / "plain")
                    if runner.attempt(f"seed {seed}", errors):
                        plain_s.append(elapsed)
                    continue
                rec.job = k
                rec.install()
                try:
                    elapsed, errors = runner.run(seed, jobs / "traced")
                finally:
                    rec.uninstall()
                if runner.attempt(f"seed {seed} traced", errors):
                    traced_s.append(elapsed)
            # Tracing must not change a byte of output.
            runner.attempt(f"seed {seed} traced vs plain", same_tree(jobs / "plain", jobs / "traced"))
        spans_file = args.scratch.parent / f"spans_{workload.name}_seed{args.seed}.jsonl"
        rec.write(spans_file)
        if plain_s and traced_s:
            metrics = layer_metrics(rec, traced_s)
            metrics["trace.jobs"] = (n_jobs, "count")
            metrics["trace.job_s_p50"] = (statistics.median(traced_s), "s")
            metrics["trace.overhead_s"] = (
                statistics.median(traced_s) - statistics.median(plain_s), "s"
            )
            result["layers"] = metrics
        result["spans_file"] = str(spans_file)

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
