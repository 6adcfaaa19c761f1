"""The core budget: a rank's compute threads are part of its placement.

A rank that is an OS process runs its numeric libraries' thread pools at
``max(1, usable cpus // rank processes of its world)`` threads, however
it was spawned: the launcher sizes its own pools before the first fork
(forked, pooled and resident ranks inherit the number), an exec'd
``mphchild`` is told through the libraries' own environment variables, a
parked process re-applies only when a job's world divides the cores
differently.  A thread world is left alone, a user who exported one of
the variables has decided, and a host with no settable pool launches as
ever.

Two kinds of test: the *placement* of the setter call is checked against
a counting fake (every process that calls it appends ``pid threads`` to
one file); what a rank *ends up with* is read from the real library
(``…get_num_threads``, the environment, ``/proc/self/task``) and skips
cleanly where numpy's BLAS has no such entry point.

The ``backend_config`` fixture carries ``--mpi-backend`` /
``--mpi-transport`` / ``--mpi-nodes``: CI's ``backends`` matrix runs the
file on every leg, the thread leg included — it asserts the thread world
is left alone.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.climate.ccsm import CCSMConfig, build_executables, build_registry, run_ccsm
from repro.launcher.cmdfile import ExecutableSpec
from repro.launcher.job import MpmdJob, mph_run, rank_pool
from repro.mpi import corebudget, launch, run_spmd
from repro.mpi.shm import _resolve_spin_us
from repro.mpi.world import WorldConfig
from repro.service import JobDocument, JobRuntime, ResultStager
from repro.tools import mphrun

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CPUS = len(os.sched_getaffinity(0))

#: Grids of the end-to-end benchmark's ``ccsm_*`` workloads (copied from
#: benchmarks/e2e/workloads.py, not imported: 16000 interface points).
SHAPES = {"atmosphere": (64, 128), "ocean": (48, 96), "land": (32, 64), "ice": (24, 48)}

MODULE = "thread_budget_models"
SOURCE = """
    import ctypes
    import os

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


    def pool_threads():
        '''Threads numpy's OpenBLAS would run its next call with, or None
        where there is no such library (or no procfs) to ask.'''
        try:
            with open("/proc/self/maps") as maps:
                paths = sorted({line.split(None, 5)[-1].strip() for line in maps
                                if "openblas" in line.lower()})
        except OSError:
            return None
        for path in paths:
            lib = ctypes.CDLL(path)
            for prefix in ("", "scipy_"):
                for suffix in ("", "64_", "_64"):
                    getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                    if getter is not None:
                        getter.argtypes, getter.restype = [], ctypes.c_int
                        return getter()
        return None


    def reading(world, env):
        import numpy  # what maps the library into an exec'd rank
        world.barrier()
        return os.getpid(), pool_threads(), [os.environ.get(var) for var in VARS]


    PROGRAMS = {"reading": reading}
"""


@pytest.fixture
def models(tmp_path, monkeypatch):
    """The throwaway program module, importable here and — through
    PYTHONPATH — by exec'd children."""
    (tmp_path / f"{MODULE}.py").write_text(textwrap.dedent(SOURCE))
    monkeypatch.syspath_prepend(str(tmp_path))
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path) + (os.pathsep + inherited if inherited else ""))
    sys.modules.pop(MODULE, None)
    yield __import__(MODULE)
    sys.modules.pop(MODULE, None)


@pytest.fixture
def proc_config(backend_config):
    if backend_config.backend != "process":
        pytest.skip("the budget is a rank process's")
    return backend_config


@pytest.fixture(autouse=True)
def undecided(monkeypatch):
    """No exported library variable, and nothing remembered from the
    launches other tests made in this process; both put back after."""
    for var in corebudget.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(corebudget, "_held", None)
    monkeypatch.setattr(corebudget, "_setters", corebudget._setters)


#: What the fake pool of this process holds; a forked rank inherits it.
FAKE_POOL = {"threads": None}


@pytest.fixture
def fake_pool(monkeypatch, tmp_path):
    """A counting stand-in for the libraries' setters.  Returns a reader
    of every call made so far, in any process, as ``(pid, threads)``."""
    log = tmp_path / "setter-calls"
    log.touch()

    def setter(threads):
        FAKE_POOL["threads"] = threads
        fd = os.open(log, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, f"{os.getpid()} {threads}\n".encode())
        finally:
            os.close(fd)

    monkeypatch.setitem(FAKE_POOL, "threads", None)
    monkeypatch.setattr(corebudget, "_setters", [setter])
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


@pytest.fixture
def four_cpus(monkeypatch):
    """A host of four usable cores, whatever this one has: worlds of 1,
    2 and 4+ ranks get 4, 2 and 1 threads a rank."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


def inherited(comm, env=None):
    """What the (fake) pool of this rank's process holds."""
    comm.barrier()
    return os.getpid(), FAKE_POOL["threads"]


def _grep(pattern, *, under=SRC):
    hits = []
    for path in sorted(under.rglob("*.py")):
        for line in path.read_text().splitlines():
            if re.search(pattern, line):
                hits.append(str(path.relative_to(under)))
    return hits


# ---------------------------------------------------------------------------
# One number
# ---------------------------------------------------------------------------


class TestOneDefinitionOfOversubscribed:
    def test_the_rule(self, four_cpus):
        assert [corebudget.cores_per_rank(n) for n in (1, 2, 3, 4, 5, 10)] == [4, 2, 1, 1, 0, 0]
        assert [corebudget.thread_budget(n) for n in (1, 2, 3, 4, 5, 10)] == [4, 2, 1, 1, 1, 1]

    def test_the_spin_rule_reads_the_same_number(self, four_cpus):
        for nprocs in range(1, 9):
            spins = _resolve_spin_us(nprocs) > 0
            assert spins == (corebudget.cores_per_rank(nprocs) >= 1) == (nprocs <= 4)

    def test_this_hosts_affinity(self):
        assert corebudget.cores_per_rank(1) == CPUS
        assert corebudget.thread_budget(CPUS + 1) == 1

    def test_one_lookup_one_setter_site(self):
        assert _grep(r"sched_getaffinity") == ["mpi/corebudget.py"]
        assert set(_grep(r"set_num_threads")) == {"mpi/corebudget.py"}
        # no knob: the libraries' variables are named in one place, and
        # written only on an exec'd rank's way out
        assert set(_grep(r"(OPENBLAS|OMP|MKL)_NUM_THREADS")) == {"mpi/corebudget.py"}
        assert set(_grep(r"THREAD_VARS")) == {"mpi/corebudget.py", "mpi/procbackend.py"}

    def test_no_procfs_no_setters(self, monkeypatch):
        real_open = open

        def no_maps(path, *args, **kwargs):
            if path == "/proc/self/maps":
                raise FileNotFoundError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", no_maps)
        assert corebudget._find_setters() == []


# ---------------------------------------------------------------------------
# Where the setter is called: once, in the launcher, before the fork
# ---------------------------------------------------------------------------


class TestWhereTheSetterIsCalled:
    def test_a_thread_world_calls_none(self, fake_pool):
        assert run_spmd(3, lambda comm: comm.allreduce(comm.rank)) == [3, 3, 3]
        result = mph_run([(inherited, 2)], config=WorldConfig(backend="thread"))
        assert [v[1] for v in result.values()] == [None, None]
        assert fake_pool() == [] and corebudget._held is None

    def test_thread_leg_of_the_matrix_is_left_alone(self, backend_config, fake_pool):
        launch(2, [inherited] * 2, config=backend_config)
        assert (fake_pool() == []) == (backend_config.backend == "thread")

    def test_once_in_the_launcher_and_ranks_inherit(self, proc_config, fake_pool):
        nprocs = CPUS + 1
        for _ in range(3):  # three launches of one layout
            results = launch(nprocs, [inherited] * nprocs, config=proc_config)
            assert [r.value[1] for r in results] == [1] * nprocs
            assert os.getpid() not in {r.value[0] for r in results}
        assert fake_pool() == [(os.getpid(), 1)]

    def test_at_most_once_per_budget_per_process_over_50_pooled_jobs(
        self, proc_config, fake_pool, four_cpus
    ):
        catalog = {"inherited": inherited}
        pool = rank_pool(catalog)
        try:
            for job in range(50):
                nprocs = (2, 3)[job % 2]  # the service's two layouts: 2 and 1 threads a rank
                result = MpmdJob(
                    [ExecutableSpec("inherited", nprocs)], programs=catalog,
                    config=proc_config, pool=pool,
                ).run(timeout=60.0)
                assert [v[1] for v in result.values()] == [corebudget.thread_budget(nprocs)] * nprocs
            assert (pool.forked, pool.reused) == (3, 25 * 2 + 25 * 3 - 3)
        finally:
            pool.close()
        calls = fake_pool()
        # The launcher alternates, so it pays per change of budget; a
        # parked process likewise — and no process ever sets the number
        # it already holds.
        by_pid = {}
        for pid, threads in calls:
            assert by_pid.get(pid) != threads, calls
            by_pid[pid] = threads
        assert len([c for c in calls if c[0] == os.getpid()]) == 50

    def test_one_budget_means_one_call_in_all(self, proc_config, fake_pool):
        """This host's case for the service: every layout oversubscribed."""
        catalog = {"inherited": inherited}
        pool = rank_pool(catalog)
        try:
            for job in range(50):
                nprocs = CPUS + 1 + job % 2
                result = MpmdJob(
                    [ExecutableSpec("inherited", nprocs)], programs=catalog,
                    config=proc_config, pool=pool,
                ).run(timeout=60.0)
                assert [v[1] for v in result.values()] == [1] * nprocs
            assert pool.reused > 100
        finally:
            pool.close()
        assert fake_pool() == [(os.getpid(), 1)]

    def test_a_parked_process_reapplies_only_a_different_budget(
        self, proc_config, fake_pool, four_cpus
    ):
        catalog = {"inherited": inherited}
        pool = rank_pool(catalog)

        def job(nprocs):
            spec = [ExecutableSpec("inherited", nprocs)]
            return MpmdJob(spec, programs=catalog, config=proc_config, pool=pool).run(timeout=60.0)

        try:
            first = job(2).values()
            assert [v[1] for v in first] == [2, 2]
            assert fake_pool() == [(os.getpid(), 2)]
            again = job(2).values()
            assert sorted(again) == sorted(first) and fake_pool() == [(os.getpid(), 2)]
            wider = job(4).values()  # two parked processes and two forked
            assert [v[1] for v in wider] == [1] * 4
            parked = {v[0] for v in first}
            assert parked < {v[0] for v in wider}
            assert sorted(fake_pool()[1:]) == sorted([(os.getpid(), 1)] + [(p, 1) for p in parked])
        finally:
            pool.close()

    def test_an_exported_variable_means_no_call(self, proc_config, fake_pool, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        results = launch(3, [inherited] * 3, config=proc_config)
        assert [r.value[1] for r in results] == [None] * 3
        assert fake_pool() == [] and corebudget._held is None

    def test_a_lookup_that_finds_nothing_is_a_launch_like_any_other(self, proc_config, monkeypatch):
        monkeypatch.setattr(corebudget, "_setters", None)
        monkeypatch.setattr(corebudget, "_find_setters", lambda: [])
        assert run_spmd(3, lambda comm: comm.allreduce(comm.rank), config=proc_config) == [3] * 3
        assert corebudget._setters == []

    def test_two_threads_two_budgets_no_rank_under_the_others_number(
        self, proc_config, fake_pool, four_cpus
    ):
        """The launcher keeps its pools at a launch's number from the set
        to the last fork: concurrent launches of a 2-rank world (2
        threads a rank) and a 4-rank world (1) never mix."""
        wrong, errors = [], []

        def launches(nprocs):
            try:
                for _ in range(12):
                    results = launch(nprocs, [inherited] * nprocs, config=proc_config, timeout=60.0)
                    got = [r.value[1] for r in results]
                    if got != [corebudget.thread_budget(nprocs)] * nprocs:
                        wrong.append((nprocs, got))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=launches, args=(n,)) for n in (2, 4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and wrong == []

    def test_a_child_forked_mid_launch_does_not_inherit_the_lock_held(self, fake_pool):
        """The launcher forks while it holds the lock; a child that is
        itself a launcher (a parked process on its next assignment, a rank
        that starts a world) must not wait for a thread that is not in it."""
        with corebudget.forking_under_budget(CPUS + 1):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    applied = threading.Thread(
                        target=corebudget.apply_thread_budget, args=(1,), daemon=True
                    )
                    applied.start()
                    applied.join(10.0)
                    status = int(applied.is_alive())
                finally:
                    os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        # ... and it did its own work there: budget CPUS here, then a process of its own
        assert fake_pool() == [(os.getpid(), 1)] + ([(pid, CPUS)] if CPUS > 1 else [])


# ---------------------------------------------------------------------------
# What a rank ends up with, read from the real library
# ---------------------------------------------------------------------------


@pytest.fixture
def real_pool(models):
    """This process's real pool, put back after the test; skips where
    there is none to read."""
    before = models.pool_threads()
    if before is None or not corebudget._find_setters():
        pytest.skip("no settable numeric thread pool is mapped into this process")
    yield models
    for setter in corebudget._find_setters():
        setter(before)


def _readings(result):
    return [value[1] for value in result.values()]


class TestEveryRankReadsTheBudget:
    def test_a_forked_rank(self, proc_config, real_pool):
        for nprocs in (max(1, CPUS // 2), CPUS + 1):  # 2-3 threads a rank (on one core: 1), and 1
            result = mph_run([(real_pool.reading, nprocs)], config=proc_config)
            assert _readings(result) == [corebudget.thread_budget(nprocs)] * nprocs

    def test_a_pooled_rank_on_its_first_and_on_a_later_job(self, proc_config, real_pool):
        pool = rank_pool(real_pool.PROGRAMS)
        try:
            spec = [ExecutableSpec("reading", 2)]
            jobs = [
                MpmdJob(spec, programs=real_pool.PROGRAMS, config=proc_config, pool=pool).run()
                for _ in range(3)
            ]
            assert (pool.forked, pool.reused) == (2, 4)
            for job in jobs:
                assert _readings(job) == [corebudget.thread_budget(2)] * 2
        finally:
            pool.close()

    def test_a_resident_worlds_rank(self, proc_config, real_pool):
        spec = {
            "name": "resident-reading",
            "components": [{"name": "reading", "nprocs": CPUS + 1, "program": "reading"}],
            "runtime": {"backend": "process", "transport": proc_config.transport,
                        "reuse_world": True, "timeout": 60.0},
        }
        doc = JobDocument.from_spec(spec)
        with JobRuntime(real_pool.PROGRAMS) as runtime:
            outcomes = [runtime.execute(doc) for _ in range(2)]
        assert [o.warm for o in outcomes] == [False, True]
        for outcome in outcomes:
            assert outcome.ok
            assert [v[1] for v in outcome.values["reading"]] == [1] * (CPUS + 1)

    def test_an_execd_rank(self, proc_config, real_pool):
        nprocs = CPUS + 1
        result = MpmdJob(
            [ExecutableSpec("reading", nprocs)], programs=MODULE, config=proc_config
        ).run(timeout=60.0)
        for pid, threads, variables in result.values():
            assert pid != os.getpid()
            assert threads == 1 and variables == ["1", "1", "1"]

    def test_an_exported_variable_reaches_execd_ranks_and_no_pool_is_resized(
        self, proc_config, real_pool, monkeypatch
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        before = real_pool.pool_threads()
        nprocs = CPUS + 1
        result = MpmdJob(
            [ExecutableSpec("reading", nprocs)], programs=MODULE, config=proc_config
        ).run(timeout=60.0)
        for _, threads, variables in result.values():
            assert variables[0] == "2" and threads == 2
        forked = mph_run([(real_pool.reading, nprocs)], config=proc_config)
        assert _readings(forked) == [before] * nprocs
        assert real_pool.pool_threads() == before

    def test_every_rank_of_the_coupled_run_the_coupler_included(self, proc_config, real_pool):
        """The benchmark's implicit configuration, two steps: whatever a
        component computes on the way, it ends holding the budget."""
        cfg = CCSMConfig(shapes=dict(SHAPES), coupling="implicit", nsteps=2)

        def reads_its_pool_last(program):
            def rank(world, env):
                program(world, env)
                return env.program, real_pool.pool_threads()

            rank.__name__ = program.__name__
            return rank

        executables = [(reads_its_pool_last(fn), n) for fn, n in build_executables(cfg, "scme")]
        result = mph_run(executables, registry=build_registry(cfg, "scme"), config=proc_config)
        nprocs = len(result.procs)
        assert nprocs == 10 and result.values()[-1][0] == "cou"
        assert _readings(result) == [corebudget.thread_budget(nprocs)] * nprocs


def big_enough_to_thread(comm):
    """Calls above OpenBLAS's threading thresholds — what the coupler's
    regrids and interface norms are — and the OS threads of this process
    before and after them."""
    comm.barrier()
    before = len(os.listdir("/proc/self/task"))
    a = np.ones((256, 256))
    v = np.ones(20_000)
    checksum = float((a @ a)[0, 0] + v @ v)
    return before, len(os.listdir("/proc/self/task")), checksum


class TestTripwire:
    def test_an_oversubscribed_ranks_blas_calls_start_no_thread(self, proc_config):
        """More ranks than cores: a worker thread started here would spin
        on a core another rank needs, and never exit.  (Fails at the
        parent commit: one thread more after the calls.)"""
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("needs procfs")
        nprocs = CPUS + 1
        for before, after, checksum in run_spmd(nprocs, big_enough_to_thread, config=proc_config):
            assert after == before
            assert checksum == 256.0 + 20_000.0


# ---------------------------------------------------------------------------
# Same physics
# ---------------------------------------------------------------------------


class TestSamePhysics:
    @pytest.mark.parametrize("coupling", ["implicit", "explicit"])
    def test_budgeted_process_world_equals_the_thread_world_bit_for_bit(
        self, proc_config, coupling
    ):
        cfg = CCSMConfig(shapes=dict(SHAPES), coupling=coupling, nsteps=3)
        threads = run_ccsm("scme", cfg)
        procs = run_ccsm("scme", cfg, config=proc_config)
        for kind in SHAPES:
            a, b = threads[kind]["final_field"], procs[kind]["final_field"]
            assert a.shape == b.shape == SHAPES[kind] and a.tobytes() == b.tobytes()
        assert threads["coupler"].get("coupling_iterations") == procs["coupler"].get(
            "coupling_iterations"
        )
        if coupling == "implicit":
            assert len(procs["coupler"]["coupling_iterations"]) == 3


# ---------------------------------------------------------------------------
# What a rank cost comes home with its result
# ---------------------------------------------------------------------------


def burn(comm, env=None):
    """50 ms of CPU on the rank's thread, then a wait that costs none."""
    start, x = time.thread_time(), 0
    while time.thread_time() - start < 0.05:
        x += 1
    comm.barrier()
    return x > 0


class TestRankCost:
    def _check(self, procs):
        for p in procs:
            assert p.value is True
            assert 0.04 < p.cpu_seconds < p.wall_seconds + 0.05
            assert 0.05 <= p.wall_seconds < 30.0

    def test_every_spawner_reports_cpu_and_wall(self, backend_config):
        self._check(launch(2, [burn] * 2, config=backend_config))

    def test_a_pooled_ranks_cost_is_the_jobs_not_the_processs(self, proc_config):
        catalog = {"burn": burn}
        pool = rank_pool(catalog)
        try:
            for _ in range(3):
                job = MpmdJob([ExecutableSpec("burn", 2)], programs=catalog, config=proc_config, pool=pool)
                procs = job.run(timeout=60.0).procs
                self._check(procs)
                assert all(p.cpu_seconds < 0.5 for p in procs)
        finally:
            pool.close()

    def test_a_rank_thread_reports_its_own_cpu_not_the_processs(self):
        procs = launch(4, [burn] * 4)
        self._check(procs)
        # four threads burned 50 ms each: a process clock would read 200
        assert all(p.cpu_seconds < 0.15 for p in procs)

    def test_the_service_stages_them_beside_each_ranks_counters(self, backend_config, tmp_path):
        spec = {
            "name": "cost",
            "components": [{"name": "burn", "nprocs": 2, "program": "burn"}],
            "runtime": {"backend": backend_config.backend, "transport": backend_config.transport,
                        "reuse_world": False, "timeout": 60.0},
            "output": {"save": ["values", "traffic"]},
        }
        doc = JobDocument.from_spec(spec)
        with JobRuntime({"burn": burn}) as runtime:
            outcome = runtime.execute(doc, "cost0")
        assert outcome.ok
        staged = ResultStager(tmp_path).stage(outcome, doc)
        for rank in json.loads((staged / "traffic.json").read_text()):
            assert rank["cpu_seconds"] > 0.04 and rank["wall_seconds"] >= 0.05
            assert rank["messages"] > 0

    def test_a_resident_worlds_reply_carries_them_per_job(self, proc_config):
        from repro.service.runtime import WorkerWorld

        spec = {
            "name": "resident-cost",
            "components": [{"name": "burn", "nprocs": 2, "program": "burn"}],
            "runtime": {"backend": "process", "transport": proc_config.transport,
                        "reuse_world": True, "timeout": 60.0},
        }
        with JobRuntime({"burn": burn}) as runtime:
            world = WorkerWorld(runtime.resolve(JobDocument.from_spec(spec)))
            try:
                for job in range(2):
                    result = world.submit(f"j{job}", [()], {}, timeout=60.0)
                    self._check(result.procs)
                    assert all(p.cpu_seconds < 0.5 for p in result.procs)
            finally:
                world.close()

    def test_mphrun_prints_them(self, models, backend_config, tmp_path, capsys):
        registry = tmp_path / "processors_map.in"
        registry.write_text("BEGIN\nreading\nEND\n")
        argv = ["--spec", "-np 2 reading", "--programs", MODULE, "--registry", str(registry),
                "--backend", backend_config.backend]
        assert mphrun.main(argv) == 0
        assert re.search(r"x2\s+ranks 0\.\.1 cpu \d+\.\d{3}s wall \d+\.\d{3}s -> ", capsys.readouterr().out)


def test_launch_budget_ccsm_table_runs():
    """The EXPERIMENTS.md "Core budget" table, reproducible."""
    script = Path(__file__).resolve().parents[2] / "benchmarks" / "launch_budget.py"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, str(script), "--ccsm", "--launches", "1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("run 1: wall ") and "process_cpu_s" in lines[1]
    rows = [line.split() for line in lines[2:]]
    assert [row[1] for row in rows] == ["atm"] * 4 + ["oce"] * 2 + ["lan"] * 2 + ["ice", "cou"]
    if corebudget.thread_budget(10) == 1:
        # a coupler with one thread keeps no BLAS worker spinning: its process
        # CPU is its rank thread's plus the transport's, not a multiple of it
        cpu, thread_cpu = float(rows[-1][3]), float(rows[-1][4])
        assert cpu < 2.0 * thread_cpu + 0.05
