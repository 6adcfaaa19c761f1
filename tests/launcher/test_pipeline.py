"""The one launch pipeline: plan -> spawn -> bootstrap -> run -> collect
-> classify -> sweep, whichever spawner starts the ranks.

One job — three executables, two of them sharing a program name — goes
through every spawner the pipeline has:

* **thread** — ``backend="thread"`` (programs given either way);
* **fork**   — ``backend="process"`` with programs given as callables;
* **exec**   — ``backend="process"`` with programs given as an import
  spec (``MpmdJob(programs="module")``, what ``mphrun --programs`` hands
  over): every rank is its own ``python -m repro.tools.mphchild``.

The ``backend_config`` fixture carries ``--mpi-backend`` /
``--mpi-transport`` and ``backend_machine`` the ``--mpi-nodes`` machine,
so CI's ``backends`` matrix runs each spawner over unix, shm and
shm/nodes=2 — the last with the node map riding every spawner's
welcome.  What must not depend on
the spawner: the plan, the values, the failure classification, and that
nothing is left behind.
"""

import glob
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest

from repro.errors import ChildExitError, LaunchError, TimeoutError_
from repro.launcher.cmdfile import ExecutableSpec
from repro.launcher.job import MpmdJob, mph_run, plan_job
from repro.mpi import launch, run_spmd
from repro.mpi.faults import FaultSchedule
from repro.mpi.procbackend import rendezvous_prefix
from repro.mpi.shm import list_segments
from repro.mpi.world import WorldConfig

REGISTRY = "BEGIN\natm\nocn_a\nocn_b\nEND\n"

#: Three executables — ``ocn`` twice, told apart only by argv: world
#: ranks 0-1, 2 and 3-4 under the block policy.
SPECS = [
    ExecutableSpec("ocn", 2, ("ocn_a",)),
    ExecutableSpec("atm", 1, ("atm",)),
    ExecutableSpec("ocn", 2, ("ocn_b", "-fast")),
]

MODULE = "pipeline_demo_models"
SOURCE = """
    import os
    import signal
    import time

    from repro.core.session import components_session


    def component(world, env):
        # the component name rides in argv: one program, several instances
        s = components_session(world, env.argv[0], env=env)
        # fd 1, not sys.stdout: a forked rank inherits pytest's capture object
        line = f"{env.program}[{env.exe_index}].{env.local_index} is {env.argv[0]}"
        os.write(1, line.encode() + os.linesep.encode())
        return (env.program, env.exe_index, env.local_index, env.argv, world.rank,
                s.pset(env.argv[0]).size)


    def boom(world, env):
        if world.rank == 0:
            raise RuntimeError(f"{env.program} exploded")
        world.barrier()


    def hard_exit(world, env):
        if env.exe_index == 1:
            os._exit(3)
        world.barrier()


    def sleeper(world, env):
        time.sleep(3.0)


    def stubborn(world, env):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        with open(env.argv[0], "w") as f:
            f.write(str(os.getpid()))
        time.sleep(60.0)


    PROGRAMS = {"ocn": component, "atm": component, "boom": boom,
                "hard_exit": hard_exit, "sleeper": sleeper,
                "stubborn": stubborn}
"""


@pytest.fixture
def module_programs(tmp_path, monkeypatch):
    """The throwaway program registry, importable here and — through
    PYTHONPATH — by exec'd children."""
    (tmp_path / f"{MODULE}.py").write_text(textwrap.dedent(SOURCE))
    monkeypatch.syspath_prepend(str(tmp_path))
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH", str(tmp_path) + (os.pathsep + inherited if inherited else "")
    )
    sys.modules.pop(MODULE, None)
    yield __import__(MODULE).PROGRAMS
    sys.modules.pop(MODULE, None)


@pytest.fixture(params=["callables", "import-spec"])
def programs(request, module_programs):
    """How the job names its programs — with a process backend this is
    the fork / exec choice."""
    return module_programs if request.param == "callables" else MODULE


def _expected_values():
    out = []
    for exe_index, spec in enumerate(SPECS):
        for local_index in range(spec.nprocs):
            out.append(
                (spec.program, exe_index, local_index, spec.argv, len(out), spec.nprocs)
            )
    return out


class TestOneJobEverySpawner:
    def test_same_plan_values_and_failures(self, programs, backend_config, backend_machine):
        ns = f"pipe{os.getpid()}"
        job = MpmdJob(
            SPECS, programs=programs, config=backend_config, registry=REGISTRY, namespace=ns,
            machine=backend_machine(5),
        )
        result = job.run(timeout=60.0)
        assert result.assignment == [[0, 1], [2], [3, 4]]
        assert result.labels == ["ocn@0.0", "ocn@0.1", "atm.0", "ocn@2.0", "ocn@2.1"]
        assert result.values() == _expected_values()
        assert result.by_executable("ocn") == _expected_values()[:2]  # first match
        assert result.by_executable(2) == _expected_values()[3:5]
        assert result.failures() == []
        # every launch returns its traffic, whichever substrate counted it
        assert all(p.traffic is not None and p.traffic.messages > 0 for p in result.procs)
        _assert_nothing_left(ns)

    def test_raising_rank_is_the_root_cause(self, programs, backend_config):
        """The rank that raised — not a sibling's secondary AbortError —
        is what the job raises, with the type the program raised."""
        job = MpmdJob(
            [ExecutableSpec("boom", 1), ExecutableSpec("boom", 2)],
            programs=programs,
            config=backend_config,
        )
        with pytest.raises(RuntimeError, match="boom exploded") as excinfo:
            job.run(timeout=60.0)
        assert type(excinfo.value) is RuntimeError

    def test_timeout_is_typed_and_leaves_nothing(self, programs, backend_config):
        ns = f"pipeto{os.getpid()}"
        job = MpmdJob(
            [ExecutableSpec("sleeper", 2)], programs=programs, config=backend_config, namespace=ns
        )
        start = time.monotonic()
        # A process job names each rank that had not reported.
        match = r"sleeper\.0.*sleeper\.1" if backend_config.backend == "process" else None
        with pytest.raises(TimeoutError_, match=match):
            job.run(timeout=0.5)
        assert time.monotonic() - start < 10.0
        _assert_nothing_left(ns)


class TestSilentDeath:
    """``os._exit`` in a rank: only a rank that is its own process can die
    without reporting, so these run the fork and exec spawners."""

    def test_child_exit_names_label_and_code(self, programs):
        ns = f"pipedie{os.getpid()}"
        job = MpmdJob(
            [ExecutableSpec("hard_exit", 1), ExecutableSpec("hard_exit", 1)],
            programs=programs,
            config=WorldConfig(backend="process", transport="shm"),  # segments to sweep
            namespace=ns,
        )
        with pytest.raises(ChildExitError) as excinfo:
            job.run(timeout=60.0)
        assert excinfo.value.label == "hard_exit@1.0"
        assert excinfo.value.exit_code == 3
        assert excinfo.value.rank == 1
        _assert_nothing_left(ns)


class TestRanksThatAreProcesses:
    """What only a rank that owns its process can get wrong, on the fork
    and the exec spawner alike."""

    def test_rank_ignoring_sigterm_is_killed_within_the_grace(self, programs, tmp_path):
        """The wall-clock budget holds against a program that shrugs off
        the launcher's SIGTERM: the reap waits out its 5 s grace, kills,
        and the launch returns — it does not block in ``waitpid``."""
        ns = f"pipestub{os.getpid()}"
        pidfile = tmp_path / "pid"
        job = MpmdJob(
            [ExecutableSpec("stubborn", 1, (str(pidfile),))],
            programs=programs,
            config=WorldConfig(backend="process", transport="shm"),  # segments to sweep
            namespace=ns,
        )
        start = time.monotonic()
        with pytest.raises(TimeoutError_):
            job.run(timeout=3.0)
        assert time.monotonic() - start < 3.0 + 5.0 + 3.0
        with pytest.raises(ProcessLookupError):  # SIGTERM was ignored; it is gone anyway
            os.kill(int(pidfile.read_text()), 0)
        _assert_nothing_left(ns)


def _assert_nothing_left(namespace):
    assert multiprocessing.active_children() == []
    prefix = rendezvous_prefix(namespace)
    assert glob.glob(os.path.join(tempfile.gettempdir(), prefix + "*")) == []
    assert list_segments(prefix) == []


# ---------------------------------------------------------------------------
# The plan: unique labels (one log file per rank)
# ---------------------------------------------------------------------------


class TestPlanLabels:
    def test_unique_names_keep_the_documented_label(self):
        plan = plan_job([ExecutableSpec("atm", 2), ExecutableSpec("ocn", 1)])
        assert plan.labels == ["atm.0", "atm.1", "ocn.0"]
        assert [(e.program, e.exe_index, e.local_index) for e in plan.envs] == [
            ("atm", 0, 0), ("atm", 0, 1), ("ocn", 1, 0)
        ]

    def test_clash_is_disambiguated_by_executable_index(self):
        plan = plan_job(
            [ExecutableSpec("ocn", 1), ExecutableSpec("atm", 1), ExecutableSpec("ocn", 1)],
            "round_robin",
        )
        assert plan.labels == ["ocn@0.0", "atm.0", "ocn@2.0"]

    def test_labels_stay_unique_against_adversarial_names(self):
        specs = [ExecutableSpec("a", 1), ExecutableSpec("a", 2), ExecutableSpec("a@1", 1)]
        labels = plan_job(specs).labels
        assert len(set(labels)) == len(labels) == 4

    def test_same_named_executables_get_a_log_file_each(self, module_programs, tmp_path):
        """Parent commit: both executables wrote ``ocn.0.log`` /
        ``ocn.1.log`` and the first one's output was gone."""
        logs = tmp_path / "logs"
        MpmdJob(
            SPECS,
            programs=module_programs,
            config=WorldConfig(backend="process"),
            registry=REGISTRY,
            log_dir=logs,
        ).run(timeout=60.0)
        assert sorted(p.name for p in logs.iterdir()) == sorted(
            f"{label}.log"
            for label in ("ocn@0.0", "ocn@0.1", "atm.0", "ocn@2.0", "ocn@2.1")
        )
        assert "ocn[0].1 is ocn_a" in (logs / "ocn@0.1.log").read_text()
        assert "ocn[2].1 is ocn_b" in (logs / "ocn@2.1.log").read_text()


# ---------------------------------------------------------------------------
# Validation: once, before anything is spawned, the same on every substrate
# ---------------------------------------------------------------------------


class TestValidateStage:
    def test_empty_world_refused_at_once(self, backend_config):
        """Parent commit, process backend: waited out the whole timeout
        and raised TimeoutError_ from the bootstrap."""
        start = time.monotonic()
        with pytest.raises(ValueError, match="world size"):
            run_spmd(0, lambda c: None, config=backend_config, timeout=20.0)
        assert time.monotonic() - start < 2.0

    @pytest.mark.parametrize("nprocs", [2.5, True], ids=["fractional", "bool"])
    def test_non_int_world_size_refused(self, backend_config, nprocs):
        """Parent commit: 2.5 raised "can't multiply sequence by
        non-int" from inside run_spmd, and True ran a 1-rank world."""
        with pytest.raises(ValueError, match="nprocs must be an int"):
            run_spmd(nprocs, lambda c: None, config=backend_config, timeout=20.0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 1e10, 0.0, -1.0])
    def test_timeout_out_of_range_refused(self, backend_config, timeout):
        """Parent commit: NaN failed every job at once with TimeoutError_,
        and inf or anything past threading.TIMEOUT_MAX raised
        OverflowError from Thread.join."""
        with pytest.raises(ValueError, match="timeout must be"):
            run_spmd(2, lambda c: None, config=backend_config, timeout=timeout)

    def test_rank_count_mismatch(self, backend_config):
        with pytest.raises(ValueError, match="need 3 rank functions, got 1"):
            launch(3, [lambda c: None], config=backend_config)

    def test_thread_only_schedules_refused_on_processes(self):
        config = WorldConfig(backend="process", fault_schedule=FaultSchedule(0))
        with pytest.raises(ValueError, match="fault_schedule requires the thread backend"):
            run_spmd(2, lambda c: None, config=config)

    def test_log_dir_refused_on_threads(self, tmp_path):
        """Parent commit: silently ignored (the job document layer
        already rejected it)."""
        with pytest.raises(LaunchError, match="log_dir requires backend='process'"):
            mph_run([(lambda w, e: None, 1)], log_dir=tmp_path / "logs")
        assert not (tmp_path / "logs").exists()


# ---------------------------------------------------------------------------
# Source audit: one plan, one pipeline
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _grep(pattern, *relpaths):
    """``(path, line)`` of every *code* line matching *pattern* — comment
    lines and docstring prose (no call or comparison can hide there: the
    patterns below are code shapes) are the caller's to exclude."""
    hits = []
    for rel in relpaths:
        root = SRC / rel
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            for line in path.read_text().splitlines():
                if re.search(pattern, line) and not line.lstrip().startswith("#"):
                    hits.append((str(path.relative_to(SRC)), line.strip()))
    return hits


class TestSourceAudit:
    """The greps ISSUE 16 sets as acceptance, pinned: a second launch
    path has to show up here first."""

    LAUNCH_CODE = ("mpi/executor.py", "mpi/procbackend.py", "launcher", "tools")

    def test_one_plan(self):
        assign = _grep(r"\bassign_ranks\(", "launcher", "service", "tools", "mpi")
        assert sorted({path for path, _ in assign}) == [
            "launcher/job.py", "launcher/rankmap.py", "tools/registry_lint.py"
        ], assign
        assert len([h for h in assign if h[0] == "launcher/job.py"]) == 1
        envs = _grep(r"\bJobEnv\(", ".")
        assert [path for path, _ in envs] == ["launcher/job.py"], envs

    def test_mphrun_launches_through_mpmdjob(self):
        assert _grep(r"_run_exec_backend|run_exec_job", "tools") == []
        assert len(_grep(r"\bMpmdJob\(", "tools/mphrun.py")) == 1
        # the exec'd child resolves its program without importing tools/
        assert _grep(r"(from|import) repro\.tools", "launcher", "mpi") == []

    def test_one_pipeline(self):
        rank_body = _grep(r"raised \{type\(", "mpi")
        assert [path for path, _ in rank_body] == ["mpi/executor.py"], rank_body
        dispatch = _grep(r"backend == \"process\"", *self.LAUNCH_CODE)
        code = [h for h in dispatch if "``" not in h[1]]  # prose quotes it in ``…``
        assert [path for path, _ in code] == ["mpi/executor.py"], dispatch
        assert _grep(r"_bind_process|def run_exec_job|class _ChildHandle", ".") == []
        spawn = _grep(r"= _Rendezvous\(", ".")
        assert len(spawn) == 1, spawn
        # One rank-process body, whoever started the process: the forked
        # child, the parked one, and the exec'd ``mphchild`` all call
        # ``child_session``, the one caller of ``run_rank`` off threads.
        sessions = _grep(r"(?<!def )\bchild_session\(", ".")
        assert [path for path, _ in sessions] == [
            "mpi/procbackend.py", "mpi/procbackend.py", "tools/mphchild.py"
        ], sessions
        bodies = _grep(r"= run_rank\(", ".")
        assert [path for path, _ in bodies] == ["mpi/executor.py", "mpi/procbackend.py"], bodies
        # ... and the service grew no dispatch with its pool: the resident
        # path's eligibility test is still the runtime's only one.
        service = _grep(r"backend == \"process\"", "service/runtime.py", "service/orchestrator.py")
        assert [line for _, line in service] == ['and rt.backend == "process"'], service
        # The one other place that asks which substrate it is on, under
        # another spelling: the rank entry choosing its §5.4 output
        # manager by whether the rank owns its process.
        sniff = _grep(r"\.transport is (not )?None", "mpi/executor.py", "launcher", "tools")
        assert [path for path, _ in sniff] == ["launcher/job.py"], sniff

    def test_import_asks_for_no_fork_context(self):
        """``import repro.mpi`` and a thread world work where the fork
        start method does not exist; only spawning a process asks for it."""
        code = """
            import multiprocessing

            def no_fork(method=None):
                raise ValueError(f"cannot find context for {method!r}")

            multiprocessing.get_context = no_fork
            from repro.mpi import WorldConfig, run_spmd

            print(run_spmd(2, lambda comm: comm.allreduce(comm.rank)))
            try:
                run_spmd(1, lambda comm: 0, config=WorldConfig(backend="process"))
            except ValueError as exc:
                print(exc)
        """
        out = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, timeout=60
        )
        assert out.stdout.splitlines() == ["[1, 1]", "cannot find context for 'fork'"], out.stderr


def test_launch_budget_script_runs():
    """The EXPERIMENTS.md "Launch budget" script names the pipeline's
    stages; keep it runnable."""
    script = Path(__file__).resolve().parents[2] / "benchmarks" / "launch_budget.py"
    out = subprocess.run(
        [sys.executable, str(script), "--launches", "2", "--ranks", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "spawn" in out.stdout and "sweep" in out.stdout
    assert [line.split()[:2] for line in out.stdout.splitlines()[1:3]] == [
        ["2", "fork"], ["2", "park"]
    ]
