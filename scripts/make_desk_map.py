#!/usr/bin/env python3
"""Generate the bundled desk landscape (src/beeloop/data/field_desk.map).

72 x 64 cells at 125 m per cell (9 km x 8 km, 7200 ha). Crop blocks of
3 x 2 cells sit on a 4-cell pitch lattice: 18 x 16 = 288 slots, of which 43
evenly spread slots are left empty, giving exactly 245 isolated crop
patches. Two horizontal and two vertical obstacle fence lines with a
regular gate pattern slow scout diffusion outward from the central hive
without sealing any part of the field off.

The construction is closed-form, no randomness. Re-running reproduces the
bundled file byte for byte.
"""

from pathlib import Path

WIDTH, HEIGHT = 72, 64
CELL_SIZE_M = 125.0
HIVE = (36, 32)

BLOCK_W, BLOCK_H, PITCH = 3, 2, 4
N_BLOCKS_TOTAL = 18 * 16
N_PATCHES = 245

WALL_ROWS = (15, 47)
WALL_COLS = (16, 56)
GATE_PERIOD = 8
GATE_WIDTH = 4


def build_rows() -> list[str]:
    grid = [["." for _ in range(WIDTH)] for _ in range(HEIGHT)]

    slots = [
        (x0, y0)
        for y0 in range(1, HEIGHT - BLOCK_H, PITCH)
        for x0 in range(1, WIDTH - BLOCK_W + 1, PITCH)
    ]
    assert len(slots) == N_BLOCKS_TOTAL
    removed = {(i * N_BLOCKS_TOTAL) // (N_BLOCKS_TOTAL - N_PATCHES)
               for i in range(N_BLOCKS_TOTAL - N_PATCHES)}
    assert len(removed) == N_BLOCKS_TOTAL - N_PATCHES
    for i, (x0, y0) in enumerate(slots):
        if i in removed:
            continue
        for dy in range(BLOCK_H):
            for dx in range(BLOCK_W):
                grid[y0 + dy][x0 + dx] = "Y"

    def gate(k: int) -> bool:
        return (k % GATE_PERIOD) < GATE_WIDTH

    for row in WALL_ROWS:
        for col in range(WIDTH):
            if not gate(col):
                grid[row][col] = "#"
    for col in WALL_COLS:
        for row in range(HEIGHT):
            if not gate(row):
                grid[row][col] = "#"

    assert grid[HIVE[1]][HIVE[0]] == "."
    grid[HIVE[1]][HIVE[0]] = "H"
    return ["".join(r) for r in grid]


def map_text() -> str:
    """The bundled map file's text: the cell size header, then the rows."""
    return f"# cell_size_m = {CELL_SIZE_M!r}\n" + "\n".join(build_rows()) + "\n"


def main() -> None:
    text = map_text()
    rows = text.splitlines()[1:]
    out = Path(__file__).resolve().parents[1] / "src" / "beeloop" / "data" / "field_desk.map"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    crop_cells = sum(r.count("Y") for r in rows)
    print(f"wrote {out}")
    print(f"blocks kept: {N_PATCHES}, crop cells: {crop_cells}, "
          f"obstacles: {sum(r.count('#') for r in rows)}")


if __name__ == "__main__":
    main()
