#!/usr/bin/env python3
"""Independent patch check for a map file.

Finds 4-connected crop components with union-find, on purpose a different
algorithm from the package's depth-first flood fill, and compares them with
the natural patches ``beeloop.landscape.derive_patches`` finds: first their
number, then, in id order, each component's sorted member cells with the
patch's ``cell_members``. Exits 1 at the first disagreement.

Usage: python scripts/verify_map.py [path/to/map]
"""

import sys
from pathlib import Path

from beeloop.landscape import derive_patches, load_map


def components(rows: list[str], symbol: str = "Y") -> list[tuple[int, ...]]:
    """4-connected components of ``symbol`` cells as sorted flat indices
    ``row*width+col``, in scan order of their first cell (patch id order)."""
    width = len(rows[0])
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch != symbol:
                continue
            idx = r * width + c
            parent[idx] = idx
            if c > 0 and row[c - 1] == symbol:
                union(idx, idx - 1)
            if r > 0 and rows[r - 1][c] == symbol:
                union(idx, idx - width)
    # parent holds the cells in scan order, so each group is sorted and the
    # groups come in order of their first cell.
    groups: dict[int, list[int]] = {}
    for i in parent:
        groups.setdefault(find(i), []).append(i)
    return [tuple(members) for members in groups.values()]


def load_rows(path: Path) -> list[str]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not rows and line.startswith("#") and "=" in line:
            continue
        if line.strip():
            rows.append(line)
    return rows


def main() -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "beeloop" / "data" / "field_desk.map"
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    rows = load_rows(path)
    union_find = components(rows)
    flood_fill = [p.cell_members for p in derive_patches(load_map(path)) if not p.artificial]
    print(f"{path}: {len(rows[0])}x{len(rows)} cells")
    print(f"crop patches (union-find, 4-connected): {len(union_find)}")
    print(f"crop patches (derive_patches): {len(flood_fill)}")
    print(f"hive cells: {sum(r.count('H') for r in rows)}")
    if len(union_find) != len(flood_fill):
        print(
            f"mismatch: union-find {len(union_find)} != derive_patches {len(flood_fill)}",
            file=sys.stderr,
        )
        return 1
    for pid, (want, got) in enumerate(zip(union_find, flood_fill)):
        if want != got:
            extra, missing = sorted(set(got) - set(want)), sorted(set(want) - set(got))
            print(
                f"mismatch: patch {pid} has cells {extra} outside its union-find component "
                f"and lacks {missing}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
