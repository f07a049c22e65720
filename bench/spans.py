"""Span recorder that times calls into beeloop's public functions from outside.

Modules import functions by name (``foraging`` calls its own binding of
``simulate_at_checkpoints``, ``cli`` calls its own ``derive_patches``), so a
traced function is replaced at every ``beeloop.*`` module attribute bound to
it, and restored afterwards. Each call records one span: name, start, end,
parent span and job id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _walk_counts(counts, bound, result):
    counts["scouting.walks"] += 1
    counts["scouting.scout_steps"] += bound["params"].n_scouts * max(bound["checkpoints"], default=0)
    counts["scouting.trajectory_walks"] += bool(bound.get("collect_trajectories"))


def _file_bytes(counts, bound, result):
    counts["cli.bytes_written"] += os.path.getsize(bound["path"])


def _report_bytes(counts, bound, result):
    counts["cli.bytes_written"] += os.path.getsize(Path(bound["run_dir"]) / "report.csv")


def _cells(counts, bound, result):
    counts["landscape.cells"] += result.width * result.height


def _proposals(counts, bound, result):
    counts["control.proposals"] += len(result)


def _accepted(counts, bound, result):
    counts["supervisor.accepted"] += result[0].iterations_used


# module -> function name -> counter hook (None: the span alone is enough)
TRACED = {
    "cli": {"main": None, "cmd_report": _report_bytes},
    "config": {"load_scenario": None},
    "weather": {"synth_weather": None},
    "landscape": {
        "parse_map": _cells, "derive_patches": None, "tile_regions": None,
        "write_foodflow": _file_bytes,
    },
    "scouting": {
        "simulate_at_checkpoints": _walk_counts, "build_sensing_map": None,
        "write_coverage_csv": _file_bytes,
        "write_trajectories_csv": _file_bytes,
    },
    "foraging": {
        "run_season": None, "simulate_day": None,
        "write_season_csv": _file_bytes, "write_totals": _file_bytes,
    },
    "monitor": {"fit": None},
    "control": {
        "extract_features": None, "classify_regions": None, "propose_patches": _proposals,
        "write_proposals_csv": _file_bytes, "write_labels_csv": _file_bytes,
    },
    "supervisor": {
        "run_fi_loop": _accepted, "optimize_env_control": None,
        "write_fi_plan_csv": _file_bytes, "write_loop_trace_csv": _file_bytes,
    },
    "metrics": {"write_comparison_csv": _file_bytes},
}
WRITERS = {
    f"{mod}.{name}"
    for mod, names in TRACED.items()
    for name in names
    if name.startswith("write_") or name == "cmd_report"
}


class SpanRecorder:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                hook(counts, bound, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function at every beeloop module attribute bound to it."""
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = sys.modules[f"beeloop.{mod_name}"]
            for fn_name, hook in names.items():
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn, hook))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "beeloop" and not mod_name.startswith("beeloop."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                ) + "\n")


def layer_metrics(rec: SpanRecorder, traced_job_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over all recorded spans: name -> (value, unit)."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_s[name] += end - start - child[i]
        calls[name] += 1
    loops = {i for i, s in enumerate(spans) if s[0] == "supervisor.run_fi_loop"}
    candidates = sum(1 for s in spans if s[0] == "foraging.run_season" and s[3] in loops) - len(loops)
    c = rec.counts
    walk_s = self_s["scouting.simulate_at_checkpoints"]
    write_s = sum(self_s[n] for n in WRITERS)
    accepted = c["supervisor.accepted"]
    job_s = sum(traced_job_s)
    s, n, r, f = "s", "count", "ratio", "fraction"
    out = {
        "scouting.walk_s": (walk_s, s),
        "scouting.walks": (c["scouting.walks"], n),
        "scouting.scout_steps": (c["scouting.scout_steps"], n),
        "scouting.ns_per_scout_step": (
            1e9 * walk_s / c["scouting.scout_steps"] if c["scouting.scout_steps"] else 0.0, "ns"
        ),
        "scouting.trajectory_walks": (c["scouting.trajectory_walks"], n),
        "scouting.sensing_map_s": (total["scouting.build_sensing_map"], s),
        "scouting.sensing_map_calls": (calls["scouting.build_sensing_map"], n),
        "landscape.parse_s": (total["landscape.parse_map"], s),
        "landscape.cells": (c["landscape.cells"], n),
        "landscape.derive_patches_s": (total["landscape.derive_patches"], s),
        "landscape.derive_patches_calls": (calls["landscape.derive_patches"], n),
        "landscape.tile_regions_s": (total["landscape.tile_regions"], s),
        "landscape.tile_regions_calls": (calls["landscape.tile_regions"], n),
        "foraging.season_s": (self_s["foraging.run_season"], s),
        "foraging.seasons": (calls["foraging.run_season"], n),
        "foraging.day_s": (total["foraging.simulate_day"], s),
        "foraging.days": (calls["foraging.simulate_day"], n),
        "supervisor.loop_self_s": (self_s["supervisor.run_fi_loop"], s),
        "supervisor.optimize_s": (total["supervisor.optimize_env_control"], s),
        "supervisor.candidates": (candidates, n),
        "supervisor.accepted": (accepted, n),
        "supervisor.accept_ratio": (accepted / candidates if candidates else 0.0, r),
        "monitor.fit_s": (total["monitor.fit"], s),
        "monitor.fits": (calls["monitor.fit"], n),
        "control.features_s": (total["control.extract_features"], s),
        "control.classify_s": (total["control.classify_regions"], s),
        "control.propose_s": (total["control.propose_patches"], s),
        "control.proposals": (c["control.proposals"], n),
        "cli.write_s": (write_s, s),
        "cli.bytes_written": (c["cli.bytes_written"], "bytes"),
        "cli.self_s": (self_s["cli.main"], s),
        "config.load_s": (total["config.load_scenario"], s),
        "weather.synth_s": (total["weather.synth_weather"], s),
    }
    # Shares of traced job time by layer (self time), for the layer table.
    layers = defaultdict(float)
    for name, t in self_s.items():
        if name == "scouting.build_sensing_map":
            layers["scouting_sensing_map"] += t
        elif name == "scouting.simulate_at_checkpoints":
            layers["scouting_walk"] += t
        elif name in WRITERS or name == "cli.main":
            layers["cli"] += t
        else:
            layers[name.split(".")[0]] += t
    for layer in ("scouting_walk", "scouting_sensing_map", "landscape", "foraging",
                  "supervisor", "monitor", "control", "cli", "config", "weather"):
        out[f"share.{layer}"] = (layers[layer] / job_s if job_s else 0.0, f)
    return out
