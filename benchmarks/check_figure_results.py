"""Gate the paper-figure tables against their committed copies.

Usage::

    mv benchmarks/results /tmp/figure_baseline
    python -m pytest benchmarks/test_fig*.py benchmarks/test_ablation_*.py \\
        benchmarks/test_ext_*.py -q
    python benchmarks/check_figure_results.py /tmp/figure_baseline benchmarks/results

Each figure, ablation and extension bench rewrites its table under
``benchmarks/results/``. Every simulated number in those tables is
deterministic, so a rerun must reproduce the committed text exactly. The
only exceptions are host-time columns (wall-clock measurements of the
host, listed in :data:`HOST_TIME_COLUMNS`), whose cells are masked before
comparing. Exits 1 if any table differs or if a committed table was not
regenerated (a skipped bench would otherwise pass unchecked), 0 otherwise.
A change meant to move a figure re-records the table and says why.
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys
from pathlib import Path

#: Table file -> header names of its host-time (wall-clock) columns.
HOST_TIME_COLUMNS: dict[str, tuple[str, ...]] = {
    "ablation_step_size.txt": ("search (s)",),
}

_TOKEN = re.compile(r"\S+")


def mask_host_columns(text: str, columns: tuple[str, ...]) -> list[str]:
    """The table's lines with every cell of the named columns replaced by ``*``.

    Columns are right-aligned under their header: a cell belongs to a
    column when its last character sits under the header name's last
    character. Masking applies from the header line to the next blank line.
    """
    lines = text.splitlines()
    for name in columns:
        edge = None
        for index, line in enumerate(lines):
            if not line.strip():
                edge = None
                continue
            if name in line:
                edge = line.index(name) + len(name)
                continue
            if edge is None:
                continue
            for match in _TOKEN.finditer(line):
                if match.end() == edge:
                    line = line[: match.start()] + "*" * len(match.group()) + line[edge:]
                    break
            lines[index] = line
    return lines


def compare(baseline: Path, current: Path) -> list[str]:
    """Problems found comparing every committed table with its rerun."""
    problems = []
    for path in sorted(baseline.glob("*.txt")):
        rerun = current / path.name
        if not rerun.exists():
            problems.append(f"{path.name}: not regenerated (did its bench run?)")
            continue
        columns = HOST_TIME_COLUMNS.get(path.name, ())
        old = mask_host_columns(path.read_text(), columns)
        new = mask_host_columns(rerun.read_text(), columns)
        if old != new:
            diff = difflib.unified_diff(old, new, path.name, f"{path.name} (rerun)", lineterm="")
            problems.append("\n".join(diff))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path, help="directory of the committed tables")
    parser.add_argument("current", type=Path, help="directory the benches rewrote")
    args = parser.parse_args(argv)
    if not any(args.baseline.glob("*.txt")):
        print(f"error: no tables under {args.baseline}", file=sys.stderr)
        return 2
    problems = compare(args.baseline, args.current)
    for problem in problems:
        print(problem)
    checked = len(list(args.baseline.glob("*.txt")))
    if problems:
        print(f"FAIL: {len(problems)} of {checked} figure tables moved")
        return 1
    print(f"OK: {checked} figure tables match their committed copies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
