#!/usr/bin/env python3
"""Name the report and trace fields that moved between two checkouts.

Reads two outputs of ``scripts/fixed_clock_digest.py --fields``, the
parent's and the change's, and pairs their numeric values by config,
command and field.  Prints how many paired values moved, then, for each
command and field with its row indices dropped (``apriori_bounds[].bound``,
``trace.res_norm[]``) that has a moved value, how many of its values moved
and the largest relative move |b - a| / max(|a|, |b|), with both values
(inf where either is not finite).  Last it lists each line that appears on
one side only: a field that the other output lacks, or a report digest,
trace digest or exit code that differs.

Usage: python scripts/fields_moved.py PARENT CHANGE
"""

import argparse
import math
import re
from collections import Counter, defaultdict
from pathlib import Path

DIGESTS = ("report", "trace", "exit")  # the fields of the lines that are not numbers
ROW = re.compile(r"\[\d+\]")


def read(path: Path) -> dict[str, str]:
    """``{"<config> <command> <field>": value}`` for each line of a ``--fields`` output."""
    return dict(line.rsplit(" ", 1) for line in path.read_text().splitlines())


def relative_move(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return 0.0 if x == y else abs(y - x) / max(abs(x), abs(y))


def compare(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    paired = [key for key in parent
              if key in change and key.rsplit(" ", 1)[1] not in DIGESTS]
    totals, moves = Counter(), defaultdict(list)
    for key in paired:
        _, command, field = key.split(" ")
        group = (command, ROW.sub("[]", field))
        totals[group] += 1
        a, b = parent[key], change[key]
        if a != b:
            moves[group].append((relative_move(a, b), a, b))
    lines = [f"{sum(map(len, moves.values()))} of {len(paired)} numeric values moved"]
    for group, moved in sorted(moves.items()):
        rel, a, b = max(moved, key=lambda m: m[0])
        lines.append(f"{' '.join(group)}: {len(moved)} of {totals[group]} moved, "
                     f"largest relative {rel:.2g} ({a} -> {b})")
    numeric = set(paired)
    for side, mine, other in (("parent", parent, change), ("change", change, parent)):
        lines += [f"only in {side}: {key} {value}" for key, value in mine.items()
                  if key not in numeric and other.get(key) != value]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="--fields output of the parent checkout")
    parser.add_argument("change", type=Path, help="--fields output of the changed checkout")
    args = parser.parse_args()
    for line in compare(read(args.parent), read(args.change)):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
