"""The parked rank pool: the launch pipeline's third spawner.

A process-backend launch that holds a ``RankPool`` (``MpmdJob(pool=)``,
what ``JobRuntime`` hands every isolated job) sends each named rank to a
process that parked after an earlier job and forks only the shortfall.
What must not change is the job: its values, plan, failures and traffic
are the forked path's.  What does change is stated and tested here: the
address space is not fresh, so only a clean job re-parks its processes,
and a parked process holds nothing — descriptor, thread, memory — of the
jobs it served.

The ``backend_config`` fixture carries ``--mpi-backend`` /
``--mpi-transport`` / ``--mpi-nodes``: CI's ``backends`` matrix runs the
file over unix, shm and shm/nodes=2.
"""

import asyncio
import gc
import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest

from repro import components_setup
from repro.errors import ChildExitError, LaunchError, TimeoutError_
from repro.launcher.cmdfile import ExecutableSpec
from repro.launcher.job import MpmdJob, rank_pool
from repro.mpi import WorldConfig, run_spmd
from repro.mpi.procbackend import rendezvous_prefix
from repro.mpi.shm import list_segments
from repro.service import JobDocument, JobRuntime, Orchestrator

REGISTRY = "BEGIN\natm\nocn\nEND\n"


def exchange(comm, env):
    """Every ``atm`` rank sends to ``ocn`` rank 0 and gets the sum back;
    each rank also says which process played it."""
    mph = components_setup(comm, env.program, env=env)
    me = mph.local_proc_id()
    if mph.comp_name() == "atm":
        mph.send(10.0 + me, "ocn", 0, tag=21)
        return os.getpid(), mph.recv("ocn", 0, tag=22)
    natm = comm.size - 1
    got = [mph.recv("atm", r, tag=21) for r in range(natm)]
    for r in range(natm):
        mph.send(sum(got), "atm", r, tag=22)
    return os.getpid(), got


def boom(comm, env):
    if comm.rank == 0:
        raise RuntimeError(f"{env.program} exploded")
    comm.barrier()


def hard_exit(comm, env):
    if comm.rank == 1:
        os._exit(3)
    comm.barrier()


def sleeper(comm, env):
    time.sleep(30.0)


def stubborn(comm, env):
    if comm.rank == 0:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60.0)


def whoami(comm, env):
    comm.barrier()
    return os.getpid()


def open_inodes(comm, env):
    """Inode of every descriptor this rank's process holds."""
    comm.barrier()
    return sorted(os.stat(f"/proc/self/fd/{fd}").st_ino for fd in _fds(os.getpid()))


CATALOG = {
    "atm": exchange, "ocn": exchange, "boom": boom, "hard_exit": hard_exit,
    "sleeper": sleeper, "stubborn": stubborn, "whoami": whoami,
}


@pytest.fixture
def proc_config(backend_config):
    if backend_config.backend != "process":
        pytest.skip("parked ranks are processes")
    return backend_config


@pytest.fixture
def pool():
    pool = rank_pool(CATALOG)
    yield pool
    pool.close()
    assert multiprocessing.active_children() == []


def _job(specs, config, pool, **kw):
    return MpmdJob(specs, programs=CATALOG, config=config, registry=REGISTRY, pool=pool, **kw)


def _coupled(natm, config, pool, **kw):
    return _job([ExecutableSpec("atm", natm), ExecutableSpec("ocn", 1)], config, pool, **kw)


def _pids(result):
    return [value[0] for value in result.values()]


def _alive(pid):
    """Whether *pid* is a live process (not gone, not a zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _gone(pids, within=2.0):
    deadline = time.monotonic() + within
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    return not any(_alive(p) for p in pids)


def _fds(pid):
    """``fd -> what it is open on`` for every descriptor of *pid*."""
    out = {}
    for name in os.listdir(f"/proc/{pid}/fd"):
        try:
            out[int(name)] = os.readlink(f"/proc/{pid}/fd/{name}")
        except OSError:
            pass  # the listing's own descriptor
    return out


def _status(pid, field):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise KeyError(field)


def _single_threaded(pid, within=2.0):
    """Every rank has acked, so every transport reader of *pid* has its
    EOF; give the threads a moment to be scheduled and see it."""
    deadline = time.monotonic() + within
    while _status(pid, "Threads") != 1 and time.monotonic() < deadline:
        time.sleep(0.005)
    return _status(pid, "Threads") == 1


def _assert_job_left_nothing(namespace):
    prefix = rendezvous_prefix(namespace)
    assert glob.glob(os.path.join(tempfile.gettempdir(), prefix + "*")) == []
    assert list_segments(prefix) == []


# ---------------------------------------------------------------------------
# Which ranks are messages and which are forks
# ---------------------------------------------------------------------------


class TestReuse:
    def test_same_smaller_and_larger_layouts(self, proc_config, pool):
        first = _pids(_coupled(2, proc_config, pool).run(timeout=60.0))
        assert (pool.forked, pool.reused) == (3, 0)
        same = _pids(_coupled(2, proc_config, pool).run(timeout=60.0))
        assert sorted(same) == sorted(first)
        assert (pool.forked, pool.reused) == (3, 3)
        smaller = _pids(_coupled(1, proc_config, pool).run(timeout=60.0))
        assert set(smaller) < set(first)
        assert (pool.forked, pool.reused) == (3, 5)
        larger = _pids(_coupled(4, proc_config, pool).run(timeout=60.0))
        assert set(first) < set(larger) and len(set(larger)) == 5
        assert (pool.forked, pool.reused) == (5, 8)
        # never more parked than were ever out at once
        assert len(multiprocessing.active_children()) == 5
        again = _pids(_coupled(4, proc_config, pool).run(timeout=60.0))
        assert sorted(again) == sorted(larger) and pool.forked == 5

    def test_a_parked_process_plays_any_rank_and_program(self, proc_config, pool):
        """Which process gets which rank is the pool's business: a
        process that was ``ocn`` is ``atm`` next, with the right values."""
        seen = set()
        for natm in (1, 3, 2, 3, 1):
            result = _coupled(natm, proc_config, pool).run(timeout=60.0)
            got = [10.0 + r for r in range(natm)]
            assert [v[1] for v in result.values()] == [sum(got)] * natm + [got]
            seen.update(_pids(result))
        assert len(seen) == pool.forked == 4

    def test_a_handshaking_rank_is_served_from_the_pool(self, proc_config):
        """A pool of its own catalog (names clash with ``CATALOG``'s; the
        two pools have nothing in common) serves ranks that run the MPH
        init exchange, job after job."""
        from repro.core.session import components_session

        def atm(comm, env):
            s = components_session(comm, env.program, env=env)
            return (s.pset(env.program).size, os.getpid())

        catalog = {"atm": atm}
        pool = rank_pool(catalog)
        try:
            for _ in range(2):
                result = MpmdJob(
                    [ExecutableSpec("atm", 2)],
                    programs=catalog, config=proc_config, registry="BEGIN\natm\nEND\n", pool=pool,
                ).run(timeout=60.0)
                assert [size for size, _ in result.values()] == [2, 2]
            assert (pool.forked, pool.reused) == (2, 2)
        finally:
            pool.close()

    def test_what_the_pool_cannot_name_forks(self, proc_config, pool):
        """A closure made after the pool cannot be in a process forked
        before it: that rank forks and exits, named ones still park."""
        late = lambda comm, env: (comm.barrier(), os.getpid())[1]  # noqa: E731
        for _ in range(2):
            result = MpmdJob(
                [ExecutableSpec("whoami", 2), (late, 1)],
                programs=CATALOG, config=proc_config, pool=pool,
            ).run(timeout=60.0)
            assert result.values()[2] not in result.values()[:2]
        assert (pool.forked, pool.reused) == (2, 2)
        assert len(multiprocessing.active_children()) == 2

    def test_log_files_need_processes_of_their_own(self, proc_config, pool, tmp_path):
        """A log file is the stdio a rank is forked with: the launch
        refuses the pool, and the runtime does not offer it."""
        with pytest.raises(LaunchError, match="log_dir needs a process per rank"):
            _job([ExecutableSpec("whoami", 2)], proc_config, pool, log_dir=tmp_path / "no").run()
        assert not (tmp_path / "no").exists() and pool.forked == 0
        with JobRuntime(CATALOG, max_resident=0) as runtime:
            plain = JobDocument.from_spec(_document(proc_config, 1))
            assert runtime.execute(plain).ok and runtime.stats["ranks_forked"] == 2
            logged = runtime.resolve(
                JobDocument.from_spec(_document(proc_config, 1, save=["values", "logs"]))
            )
            outcome = runtime.execute_resolved(logged, log_dir=str(tmp_path / "logs"))
            assert outcome.ok and runtime.stats["cold"] == 2
            assert sorted(p.name for p in (tmp_path / "logs").iterdir()) == ["atm.0.log", "ocn.0.log"]
            assert (runtime.stats["ranks_forked"], runtime.stats["ranks_reused"]) == (2, 0)
            assert not any(_alive(v[0]) for vs in outcome.values.values() for v in vs)

    def test_import_spec_and_pool_are_refused_together(self, pool):
        with pytest.raises(LaunchError, match="import spec"):
            MpmdJob([ExecutableSpec("atm", 1)], programs="some.module", pool=pool)

    def test_thread_worlds_ignore_the_pool(self, pool):
        result = _coupled(2, WorldConfig(), pool).run(timeout=60.0)
        assert set(_pids(result)) == {os.getpid()}
        assert (pool.forked, pool.reused) == (0, 0)


# ---------------------------------------------------------------------------
# The job is the forked path's job
# ---------------------------------------------------------------------------


def _countable(traffic):
    """The counters of a rank's traffic that do not depend on timing."""
    return (traffic.messages, traffic.payload_bytes, traffic.by_kind)


class TestSameJob:
    def test_result_equals_the_forked_paths(self, proc_config, pool):
        forked = _coupled(2, proc_config, None).run(timeout=60.0)
        _coupled(2, proc_config, pool).run(timeout=60.0)
        parked = _coupled(2, proc_config, pool).run(timeout=60.0)
        assert pool.reused == 3
        assert [v[1] for v in parked.values()] == [v[1] for v in forked.values()]
        assert parked.assignment == forked.assignment == [[0, 1], [2]]
        assert parked.labels == forked.labels
        assert parked.failures() == forked.failures() == []
        assert [_countable(p.traffic) for p in parked.procs] == [
            _countable(p.traffic) for p in forked.procs
        ]
        assert sum(p.traffic.messages for p in parked.procs) > 0

    def test_outcome_equals_the_forked_paths_for_the_same_document(self, proc_config):
        """Through the service: the first job of a runtime forks, the
        second is served from the pool — one document, one outcome."""
        doc = JobDocument.from_spec(_document(proc_config, 2))
        with JobRuntime(CATALOG, max_resident=0) as runtime:
            forked = runtime.execute(doc, "samedoc0")
            parked = runtime.execute(doc, "samedoc1")
            assert runtime.stats["ranks_forked"] == 3 and runtime.stats["ranks_reused"] == 3
            assert runtime.stats["cold"] == 2 and runtime.stats["warm"] == 0
        for outcome in (forked, parked):
            assert outcome.ok and outcome.warm is False and outcome.failures == []
        strip = lambda values: {k: [v[1] for v in vs] for k, vs in values.items()}  # noqa: E731
        assert strip(parked.values) == strip(forked.values)
        pick = lambda traffic: [(t["messages"], t["payload_bytes"], t["by_kind"]) for t in traffic]  # noqa: E731
        assert pick(parked.traffic) == pick(forked.traffic)
        for job_id in ("samedoc0", "samedoc1"):
            _assert_job_left_nothing(job_id)


def _document(config, natm, program=None, save=("values", "traffic"), warm=False):
    runtime = {"backend": "process", "transport": config.transport, "reuse_world": warm,
               "timeout": 60.0}
    if config.nodes is not None:
        runtime["nodes"] = config.nodes
    return {
        "name": f"pool-atm{natm}",
        "components": [
            {"name": "atm", "nprocs": natm, "program": program or "atm"},
            {"name": "ocn", "nprocs": 1, "program": program or "ocn"},
        ],
        "runtime": runtime,
        "output": {"save": list(save)},
    }


# ---------------------------------------------------------------------------
# Only a clean job re-parks its processes
# ---------------------------------------------------------------------------


class TestRetireOnFailure:
    def _parked(self, config, pool):
        """Three processes parked by a clean job."""
        pids = _pids(_coupled(2, config, pool).run(timeout=60.0))
        assert all(_alive(pid) for pid in pids)
        return pids

    def _next_job_succeeds_on_fresh_processes(self, config, pool, retired, namespace):
        assert _gone(retired, within=0.0)
        assert multiprocessing.active_children() == []
        _assert_job_left_nothing(namespace)
        forked = pool.forked
        fresh = _pids(_coupled(2, config, pool).run(timeout=60.0))
        assert not set(fresh) & set(retired) and pool.forked == forked + 3
        assert sorted(_pids(_coupled(2, config, pool).run(timeout=60.0))) == sorted(fresh)

    def test_raising_rank(self, proc_config, pool):
        pids = self._parked(proc_config, pool)
        ns = f"poolboom{os.getpid()}"
        with pytest.raises(RuntimeError, match="boom exploded") as excinfo:
            _job([ExecutableSpec("boom", 3)], proc_config, pool, namespace=ns).run(timeout=60.0)
        assert type(excinfo.value) is RuntimeError
        assert pool.reused == 3
        self._next_job_succeeds_on_fresh_processes(proc_config, pool, pids, ns)

    def test_silent_death_still_names_label_and_code(self, proc_config, pool):
        pids = self._parked(proc_config, pool)
        ns = f"pooldie{os.getpid()}"
        job = _job(
            [ExecutableSpec("hard_exit", 1), ExecutableSpec("hard_exit", 2)],
            proc_config, pool, namespace=ns,
        )
        with pytest.raises(ChildExitError) as excinfo:
            job.run(timeout=60.0)
        assert pool.reused == 3
        assert excinfo.value.label == "hard_exit@1.0"
        assert (excinfo.value.rank, excinfo.value.exit_code) == (1, 3)
        self._next_job_succeeds_on_fresh_processes(proc_config, pool, pids, ns)

    def test_timeout(self, proc_config, pool):
        pids = self._parked(proc_config, pool)
        ns = f"poolto{os.getpid()}"
        start = time.monotonic()
        with pytest.raises(TimeoutError_):
            _job([ExecutableSpec("sleeper", 3)], proc_config, pool, namespace=ns).run(timeout=0.5)
        assert time.monotonic() - start < 10.0
        self._next_job_succeeds_on_fresh_processes(proc_config, pool, pids, ns)

    def test_rank_ignoring_sigterm_is_killed_within_the_grace(self, proc_config, pool):
        pids = self._parked(proc_config, pool)
        ns = f"poolstub{os.getpid()}"
        start = time.monotonic()
        with pytest.raises(TimeoutError_):
            _job([ExecutableSpec("stubborn", 3)], proc_config, pool, namespace=ns).run(timeout=2.0)
        assert time.monotonic() - start < 2.0 + 5.0 + 3.0
        self._next_job_succeeds_on_fresh_processes(proc_config, pool, pids, ns)


# ---------------------------------------------------------------------------
# A parked process holds nothing of the jobs it served, or of its launcher
# ---------------------------------------------------------------------------


class TestHygiene:
    def test_descriptors_threads_and_memory_stay_put_over_50_jobs(self, proc_config, pool):
        job = _coupled(2, proc_config, pool)
        pids = sorted(_pids(job.run(timeout=60.0)))
        # What the launcher's own stdio objects write through (pytest's
        # capture files) is stdio to a process forked from it too.
        stdio = {0, 1, 2}
        for stream in (sys.stdout, sys.stderr):
            try:
                stdio.add(stream.fileno())
            except (OSError, ValueError):
                pass
        assert all(_single_threaded(pid) for pid in pids)
        before = {pid: _fds(pid) for pid in pids}
        for pid, fds in before.items():
            beyond = sorted(
                what.split(":")[0] for fd, what in fds.items() if fd not in stdio
            )
            # its park connection, and the /dev/null multiprocessing gives
            # every child for a stdin
            assert beyond == ["/dev/null", "socket"], fds
        rss = {}
        for n in range(2, 51):
            assert sorted(_pids(job.run(timeout=60.0))) == pids
            if n in (10, 50):
                rss[n] = {pid: _status(pid, "VmRSS") for pid in pids}
        assert pool.forked == 3
        for pid in pids:
            assert _single_threaded(pid)
            assert _fds(pid) == before[pid]
            assert rss[50][pid] <= 1.02 * rss[10][pid], (pid, rss)

    def test_a_rank_forked_meanwhile_holds_no_park_connection(self, proc_config, pool):
        """Closing the launcher's end must be EOF at the parked process,
        so nobody forked while it is parked may keep a copy: not a rank
        that is forked the plain way, not a sibling forked into the pool."""
        _coupled(2, proc_config, pool).run(timeout=60.0)
        ours = {os.fstat(child.conn.fileno()).st_ino for child in pool._idle}
        assert len(ours) == 3
        plain = run_spmd(2, open_inodes, fn_args=(None,), config=proc_config, timeout=60.0)
        catalog_pool = rank_pool({"open_inodes": open_inodes})
        try:
            pooled = MpmdJob(
                [ExecutableSpec("open_inodes", 2)], programs={"open_inodes": open_inodes},
                config=proc_config, pool=catalog_pool,
            ).run(timeout=60.0).values()
        finally:
            catalog_pool.close()
        for inodes in plain + pooled:
            assert not ours & set(inodes)

    @pytest.mark.parametrize("max_resident", [0, 2], ids=["isolated", "resident"])
    def test_dropped_runtime_strands_nothing(self, proc_config, max_resident):
        runtime = JobRuntime(CATALOG, max_resident=max_resident)
        outcome = runtime.execute(JobDocument.from_spec(_document(proc_config, 2, warm=max_resident > 0)))
        assert outcome.ok and outcome.warm is False
        assert runtime.stats["worlds_built"] == (max_resident > 0)
        pids = [v[0] for vs in outcome.values.values() for v in vs]
        assert all(_alive(pid) for pid in pids)
        del runtime, outcome
        gc.collect()
        assert _gone(pids)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("max_resident", [0, 2], ids=["isolated", "resident"])
    def test_sigkill_of_the_service_leaves_no_parked_process(
        self, proc_config, tmp_path, short_tmp, max_resident
    ):
        """The processes of a service that dies without a word — parked,
        or the ranks of a resident world between its jobs — see EOF on
        their connections to it and exit.  (The socket directory of a
        resident world is the dead service's to sweep, so it runs in a
        temp dir of its own.)"""
        script = tmp_path / "service.py"
        script.write_text(textwrap.dedent(f"""
            import sys, time
            sys.path.insert(0, {str(Path(__file__).resolve().parents[2])!r})
            from tests.launcher.test_rank_pool import CATALOG, _document
            from repro.mpi import WorldConfig
            from repro.service import JobDocument, JobRuntime

            config = WorldConfig(backend="process", transport={proc_config.transport!r},
                                 nodes={proc_config.nodes!r})
            runtime = JobRuntime(CATALOG, max_resident={max_resident})
            for _ in range(2):
                document = _document(config, 2, warm={max_resident > 0})
                outcome = runtime.execute(JobDocument.from_spec(document))
            served = runtime.stats["warm" if {max_resident} else "ranks_reused"]
            assert outcome.ok and served == {1 if max_resident else 3}, outcome.error
            print(*[v[0] for vs in outcome.values.values() for v in vs], flush=True)
            time.sleep(60.0)
        """))
        env = dict(os.environ, TMPDIR=str(short_tmp))
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        service = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            pids = [int(pid) for pid in service.stdout.readline().split()]
            assert len(pids) == 3 and all(_alive(pid) for pid in pids)
            service.kill()
            service.wait(timeout=10.0)
            assert _gone(pids, within=2.0)
        finally:
            service.kill()
            service.wait(timeout=10.0)
            service.stdout.close()


# ---------------------------------------------------------------------------
# Concurrent cold jobs through one orchestrator
# ---------------------------------------------------------------------------


def test_three_workers_200_cold_jobs_each_none_fails(proc_config, tmp_path):
    """ROADMAP's re-test of the "concurrent cold jobs fail 1 in 200"
    lead: three closed-loop clients, three workers, one runtime, one
    pool — take, fork-the-shortfall and park interleave."""
    documents = [JobDocument.from_spec(_document(proc_config, natm)) for natm in (1, 2)]

    async def client(orch, which):
        failed = []
        for i in range(200):
            handle = await (await orch.submit(documents[(i + which) % 2])).wait()
            if handle.state != "done":
                failed.append((handle.job_id, handle.error))
        return failed

    async def main():
        async with Orchestrator(CATALOG, max_workers=3, output_dir=tmp_path) as orch:
            failures = await asyncio.gather(*(client(orch, which) for which in range(3)))
            return sum(failures, []), orch.counts(), dict(orch.runtime.stats)

    failed, counts, stats = asyncio.run(main())
    assert failed == []
    assert counts == {"done": 600}
    assert stats["cold"] == 600 and stats["warm"] == 0
    # at most three jobs of at most three ranks were ever out at once
    assert stats["ranks_forked"] <= 9
    assert stats["ranks_forked"] + stats["ranks_reused"] == 300 * 2 + 300 * 3
    assert multiprocessing.active_children() == []
    assert glob.glob(os.path.join(tempfile.gettempdir(), "repro-mpi-job*")) == []
