"""Golden output of small ``python -m repro`` invocations.

``tests/data/cli_golden.json`` pins stdout, stderr and the exit code of
one small invocation per command path that builds a simulated cluster:
``run-ior`` with faults, replication, rebuild, quorum writes and a cached
two-shard metadata service (and with a bad ``--layout``), ``chaos`` with
replication, rebuild and corruption (and with metadata-shard crashes),
``scrub``, ``serve --compare-hedging``, ``trace``, and ``replay`` on the
per-request and the batched path. A refactor of the CLI or the harness
that keeps every flag's meaning reproduces them byte for byte.

Paths under the test's temporary directory print as ``{tmp}``; lines that
report host wall time or peak RSS are left out (none of these commands
prints one today).

Regenerate the file (only when a change is *meant* to move CLI output)
with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.util.units import KiB, MiB
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.traces import TraceFile

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
IOR = ["--hservers", "2", "--sservers", "2", "--processes", "4",
       "--file-size", "2M", "--request-size", "64K"]
CASES = {
    "run-ior-durability": [
        "run-ior", *IOR, "--layout", "harl",
        "--faults", "crash:hserver0@0.002;restore:hserver0@0.05",
        "--replicas", "2", "--rebuild", "--write-quorum", "1",
        "--mds-shards", "2", "--mds-cache",
    ],
    "run-ior-bad-layout": ["run-ior", *IOR, "--layout", "bogus"],
    "chaos-rebuild-corrupt": [
        "chaos", *IOR, "--rates", "0,2", "--replicas", "2", "--rebuild",
        "--corrupt-rate", "1.0", "--jobs", "1",
    ],
    "chaos-mds-crash": [
        "chaos", *IOR, "--rates", "0,2", "--mds-shards", "2",
        "--mds-crash-rate", "2", "--jobs", "1",
    ],
    "scrub": ["scrub", *IOR, "--layout", "64K"],
    "serve-compare-hedging": [
        "serve", "--hservers", "2", "--sservers", "2", "--duration", "0.1",
        "--compare-hedging", "--jobs", "1",
    ],
    "trace": ["trace", *IOR, "--layout", "64K", "--out", "{tmp}/t.json",
              "--csv", "{tmp}/spans.csv"],
    "replay": ["replay", "--hservers", "2", "--sservers", "2",
               "--trace", "{tmp}/trace.csv", "--layout", "64K"],
    "replay-batched": ["replay", "--hservers", "2", "--sservers", "2",
                       "--trace", "{tmp}/trace.csv", "--layout", "64K", "--batched"],
}
#: Host-dependent lines (wall time, peak RSS) never enter the record.
_HOST_LINE = re.compile(r"\bwall\b|\bRSS\b")


def _write_trace(tmp: Path) -> None:
    workload = IORWorkload(
        IORConfig(n_processes=4, request_size=128 * KiB, file_size=2 * MiB, op="write")
    )
    TraceFile.save(tmp / "trace.csv", workload.synthetic_trace())


def _scrub(text: str, tmp: Path) -> str:
    text = text.replace(str(tmp), "{tmp}")
    return "".join(
        line for line in text.splitlines(keepends=True) if not _HOST_LINE.search(line)
    )


def capture(case: str, tmp: Path) -> dict:
    """Exit code, stdout and stderr of one golden invocation."""
    _write_trace(tmp)
    argv = [token.replace("{tmp}", str(tmp)) for token in CASES[case]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout": _scrub(out.getvalue(), tmp),
        "stderr": _scrub(err.getvalue(), tmp),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(golden, case, tmp_path):
    assert capture(case, tmp_path) == golden[case]


if __name__ == "__main__":
    records = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            records[case] = capture(case, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(records)} golden records to {GOLDEN}\n")
