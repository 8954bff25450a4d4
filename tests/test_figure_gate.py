"""The paper-figure gate (``benchmarks/check_figure_results.py``).

The gate compares the tables the figure benches rewrite with their
committed copies. These tests pin what it ignores (host-time cells) and
what it catches (a moved simulated number, a table that was not rerun).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_figure_results", ROOT / "benchmarks" / "check_figure_results.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

STEP_TABLE = """=== Ablation: Algorithm 2 grid step ===
  step         choice   modeled cost (s)  search (s)
    4K     {12K, 92K}           0.075449      0.1781
   16K    {16K, 208K}           0.079816      0.0139
"""


def _tables(tmp_path: Path, name: str, files: dict[str, str]) -> Path:
    directory = tmp_path / name
    directory.mkdir()
    for file_name, text in files.items():
        (directory / file_name).write_text(text)
    return directory


def test_host_time_cells_are_masked_and_simulated_cells_kept():
    lines = gate.mask_host_columns(STEP_TABLE, ("search (s)",))
    assert lines[2] == "    4K     {12K, 92K}           0.075449      ******"
    assert lines[3].endswith("0.079816      ******")


def test_every_committed_table_names_its_host_columns():
    """The masked columns exist in the committed tables they are declared for."""
    for file_name, columns in gate.HOST_TIME_COLUMNS.items():
        text = (ROOT / "benchmarks" / "results" / file_name).read_text()
        assert all(column in text for column in columns)


def test_a_rerun_that_only_moves_host_time_passes(tmp_path):
    baseline = _tables(tmp_path, "base", {"ablation_step_size.txt": STEP_TABLE})
    current = _tables(
        tmp_path, "cur", {"ablation_step_size.txt": STEP_TABLE.replace("0.1781", "0.0669")}
    )
    assert gate.compare(baseline, current) == []
    assert gate.main([str(baseline), str(current)]) == 0


def test_a_moved_simulated_number_or_a_missing_table_fails(tmp_path):
    fig = "layout        MiB/s   makespan(s)\n256K          255.5        0.4539\n"
    baseline = _tables(
        tmp_path, "base", {"fig11.txt": fig, "ablation_step_size.txt": STEP_TABLE}
    )
    current = _tables(
        tmp_path,
        "cur",
        {"ablation_step_size.txt": STEP_TABLE.replace("0.075449", "0.075450")},
    )
    problems = gate.compare(baseline, current)
    assert len(problems) == 2
    assert "0.075450" in problems[0]
    assert "fig11.txt: not regenerated" in problems[1]
    assert gate.main([str(baseline), str(current)]) == 1
