"""The schedule-sweep plugin's failure report (tests/plugins/schedule_sweep.py).

A deliberately failing swept test is run in a child ``pytest``; its
report must carry the one-line repro command with the pinned seed, and
the trace dump must hold that seed, the schedule spec and the recorded
decisions.
"""

import json
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from repro.mpi import ANY_SOURCE


def test_swept_and_failing(mpi_world):
    def main(comm):
        if comm.rank != 0:
            comm.send(comm.rank, 0, tag=1)
        comm.barrier()
        if comm.rank == 0:
            return [comm.recv(source=ANY_SOURCE, tag=1) for _ in range(comm.size - 1)]
        return None

    assert mpi_world(3, main)[0] == "never"
"""


def test_failure_report_carries_seed_and_trace_dump(tmp_path):
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_failing.py").write_text(textwrap.dedent(FAILING))
    trace_dir = tmp_path / "traces"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "test_failing.py",
            "-p", "tests.plugins.schedule_sweep", "-p", "no:cacheprovider",
            "--mpi-match-seed=2", f"--mpi-trace-dir={trace_dir}",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if "schedule sweep repro" in line)
    command = shlex.split(lines[header + 1])
    assert command[:4] == ["PYTHONPATH=src", "python", "-m", "pytest"]
    assert command[4:] == ["test_failing.py::test_swept_and_failing[mseed2]", "--mpi-match-seed=2"]

    dumps = list(trace_dir.glob("*.json"))
    assert len(dumps) == 1, dumps
    assert f"trace spec: {dumps[0]}" in proc.stdout
    dump = json.loads(dumps[0].read_text())
    assert dump["match_seed"] == 2
    assert dump["schedules"] == [{"seed": 2, "hold_prob": 0.25, "hold_max": 2}]
    (trace,) = dump["traces"]
    assert trace["events"], dump
    assert {kind for kind, *_ in trace["events"]} >= {"match"}
