#!/usr/bin/env python3
"""Baseline calibration sweep on the bundled desk landscape.

Prints per-seed and aggregate scouting statistics at the unassisted (9 h)
and fully lit (16 h) horizons. Used to pick the shipped ScoutParams
defaults; re-run after any movement-law change.

Usage: python scripts/calibrate_baseline.py [n_seeds]
"""

import sys
import time

import numpy as np

from beeloop.cli import default_config_path
from beeloop.landscape import derive_patches, load_map
from beeloop.scouting import ScoutParams, simulate_at_checkpoints


def main() -> None:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    grid = load_map(default_config_path().parent / "field_desk.map")
    patches = derive_patches(grid)
    params = ScoutParams()
    print(f"landscape: {grid.width}x{grid.height} cells, "
          f"{len(patches)} patches, {grid.traversable_count()} traversable cells")
    print(f"params: {params}")

    # With one seed the 9 h walk is the prefix of the 16 h one, so one walk
    # read at both step counts gives both.
    steps9, steps16 = params.steps(9.0), params.steps(16.0)
    rows = []
    t0 = time.monotonic()
    for seed in range(1, n_seeds + 1):
        walk = simulate_at_checkpoints(grid, patches, params, [steps9, steps16], seed)
        (ids9, frac9), (ids16, frac16) = walk.at_checkpoint[steps9], walk.at_checkpoint[steps16]
        rows.append((seed, frac9, len(ids9) / len(patches), frac16, len(ids16) / len(patches)))
        print(f"seed {seed:3d}: 9h cov {rows[-1][1]:.3f} det {rows[-1][2]:.3f}"
              f" | 16h cov {rows[-1][3]:.3f} det {rows[-1][4]:.3f}")
    cov9 = [r[1] for r in rows]
    det9 = [r[2] for r in rows]
    cov16 = [r[3] for r in rows]
    print(f"\nmean 9h coverage  {np.mean(cov9):.3f} (min {min(cov9):.3f}, max {max(cov9):.3f})")
    print(f"mean 9h detected  {np.mean(det9):.3f}")
    print(f"mean 16h coverage {np.mean(cov16):.3f}")
    print(f"hours-only coverage delta {np.mean(cov16) - np.mean(cov9):+.3f}")
    print(f"elapsed {time.monotonic() - t0:.1f}s")


if __name__ == "__main__":
    main()
