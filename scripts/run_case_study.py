#!/usr/bin/env python3
"""End-to-end desk case study: baseline run, feedback-loop run, report.

Equivalent to:

    beeloop baseline --out <dir>/baseline
    beeloop fi --out <dir>/fi
    beeloop report <dir>/fi

then prints the headline comparison numbers.

Usage: python scripts/run_case_study.py [out_dir] [seed]
"""

import sys
import time
from pathlib import Path

from beeloop.cli import main as cli_main


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs/case_study")
    seed = sys.argv[2] if len(sys.argv) > 2 else "42"
    t0 = time.monotonic()
    for argv in (
        ["baseline", "--seed", seed, "--out", str(out / "baseline")],
        ["fi", "--seed", seed, "--out", str(out / "fi")],
        ["report", str(out / "fi")],
    ):
        code = cli_main(argv)
        if code != 0:
            sys.exit(code)
    print(f"artifacts under {out} ({time.monotonic() - t0:.1f}s)")
    print("\ncomparison.csv:")
    print((out / "fi" / "comparison.csv").read_text(), end="")


if __name__ == "__main__":
    main()
