"""The process execution backend through the launcher stack.

These tests run *real* OS processes: :class:`MpmdJob` forks its ranks,
and ``mphrun --backend process`` execs each component as its own
``python -m repro.tools.mphchild``.  They cover what the thread-backend
launcher tests cannot — per-process stdout files produced by genuine
``dup2`` redirection (paper §5.4), and hard child death (``os._exit``)
failing the whole job with the component named.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.errors import (
    AbortError,
    LaunchError,
    ProcessFailedError,
    TimeoutError_,
    TransportError,
)
from repro.launcher.job import JobResult, MpmdJob
from repro.mpi import ANY_SOURCE, procbackend, run_spmd
from repro.mpi.procbackend import ChildExitError
from repro.mpi.transport import connect, send_frame
from repro.mpi.world import WorldConfig
from repro.tools import mphchild
from repro.tools.mphrun import main


def identity_program(world, env):
    return (env.program, env.exe_index, env.local_index, world.rank, world.size)


PROCESS = WorldConfig(backend="process")


class TestMpmdJobProcessBackend:
    def test_shared_comm_world(self):
        """All executables still share one COMM_WORLD when each rank is a
        forked process — the §6 startup condition, now cross-process."""
        job = MpmdJob(
            [(identity_program, 2), (identity_program, 2)], config=PROCESS
        )
        result = job.run(timeout=60.0)
        assert {v[4] for v in result.values()} == {4}
        assert result.assignment == [[0, 1], [2, 3]]

    def test_cross_component_exchange(self):
        """Components really communicate across process boundaries."""

        def sender(world, env):
            world.send(f"from {env.program}", world.size - 1, tag=1)
            return "sent"

        def receiver(world, env):
            if world.rank == world.size - 1:
                return world.recv(source=0, tag=1)
            return "idle"

        result = MpmdJob([(sender, 1), (receiver, 2)], config=PROCESS).run(
            timeout=60.0
        )
        assert result.by_executable("receiver")[-1] == "from sender"

    def test_per_component_log_files(self, tmp_path):
        """§5.4 via dup2: local processor 0 of each component owns
        ``<component>.log``; other processors share the combined log."""

        def chatty(world, env):
            env.output.redirect(
                env.program,
                is_channel_owner=env.local_index == 0,
                env_vars=env.vars,
                workdir=env.workdir,
            )
            print(f"{env.program} local {env.local_index} says hi", flush=True)
            world.barrier()
            return "ok"

        chatty.__name__ = "atmos"
        result = MpmdJob([(chatty, 2)], config=PROCESS, workdir=tmp_path).run(
            timeout=60.0
        )
        assert result.values() == ["ok", "ok"]
        assert "atmos local 0 says hi" in (tmp_path / "atmos.log").read_text()
        assert "atmos local 1 says hi" in (tmp_path / "mph_combined.log").read_text()

    def test_rank_exception_propagates(self):
        def boom(world, env):
            if world.rank == 1:
                raise RuntimeError("component exploded")
            world.barrier()

        with pytest.raises((RuntimeError, AbortError)):
            MpmdJob([(boom, 3)], config=PROCESS).run(timeout=60.0)

    def test_hard_child_death_names_component(self):
        """A rank dying without reporting (``os._exit``) must fail the
        job with a ChildExitError naming the component, not hang or
        surface a bare transport error."""

        def dies(world, env):
            if world.rank == 0:
                os._exit(7)
            world.barrier()

        dies.__name__ = "crasher"
        with pytest.raises(ChildExitError) as excinfo:
            MpmdJob([(dies, 2)], config=PROCESS).run(timeout=60.0)
        exc = excinfo.value
        assert isinstance(exc, LaunchError)
        assert exc.label == "crasher.0"
        assert exc.exit_code == 7
        assert "crasher" in str(exc)

    def test_a_death_the_launcher_has_seen_is_not_waited_out(self):
        """Rank 0 dies and rank 1 returns: once every rank still owed a
        result has exited there is nobody left to wait for, so the job
        fails at once with the dead rank named — not after the grace
        live siblings get to unwind."""

        def fn(comm):
            if comm.rank == 0:
                os._exit(4)
            return comm.rank

        start = time.monotonic()
        with pytest.raises(ChildExitError) as excinfo:
            run_spmd(2, fn, config=PROCESS, timeout=30.0)
        assert time.monotonic() - start < 0.5
        assert (excinfo.value.rank, excinfo.value.exit_code) == (0, 4)

    def test_a_rank_that_reported_and_then_died_keeps_its_result(self):
        """Rank 1 reports and its process exits a moment later; rank 0
        dies without a word.  Only rank 0 is a death."""

        def reported(comm):
            threading.Timer(0.02, os._exit, (5,)).start()
            return "reported"

        def silent(comm):
            time.sleep(0.1)
            os._exit(4)

        results = procbackend.run_procs([silent, reported], PROCESS, timeout=30.0)
        assert isinstance(results[0].exception, ChildExitError)
        assert results[0].exception.exit_code == 4
        assert (results[1].exception, results[1].value) == (None, "reported")

    def test_failures_accessor_shape(self):
        """failures() stays empty on a clean process-backend run."""
        result = MpmdJob([(identity_program, 2)], config=PROCESS).run(timeout=60.0)
        assert isinstance(result, JobResult)
        assert result.failures() == []

    @pytest.mark.parametrize("transport", ["unix", "shm"])
    def test_crash_mid_transfer_surfaces_failure(self, tmp_path, transport):
        """A peer dying between messages must turn the survivor's posted
        recv into a ProcessFailedError (shm: via the doorbell socket's
        EOF), never a hang — and the job must still name the dead rank.
        Shm segments of the crashed job must all be swept."""
        marker = tmp_path / "observed.txt"

        def fn(world, env, marker_path=str(marker)):
            import numpy as np

            from repro.errors import ProcessFailedError

            if world.rank == 1:
                # establish the transfer path with a real large payload
                # (page-pool path on shm), then die without warning
                world.send(np.arange(200_000, dtype=np.float64), 0, tag=1)
                os._exit(9)
            got = world.recv(source=1, tag=1)
            assert float(got.sum()) == float(
                np.arange(200_000, dtype=np.float64).sum()
            )
            try:
                world.recv(source=1, tag=2)  # never sent: peer is dead
            except ProcessFailedError as exc:
                with open(marker_path, "w") as fh:
                    fh.write(f"ProcessFailedError: {exc}")
                raise

        fn.__name__ = "mid_transfer_crasher"
        cfg = WorldConfig(backend="process", transport=transport)
        with pytest.raises((ChildExitError, AbortError)) as excinfo:
            MpmdJob([(fn, 2)], config=cfg).run(timeout=60.0)
        if isinstance(excinfo.value, ChildExitError):
            assert excinfo.value.exit_code == 9
        # the survivor saw a clean rank-failure, not a hang or garbage
        assert marker.exists(), "posted recv never observed the crash"
        assert "ProcessFailedError" in marker.read_text()
        from repro.mpi.shm import list_segments

        assert list_segments("repro-mpi-") == [], "crash leaked segments"


# ---------------------------------------------------------------------------
# The bootstrap: a star around the launcher, one connection per rank
# ---------------------------------------------------------------------------


class TestBootstrap:
    def test_default_world_is_sockets_and_nothing_of_shm(self):
        """``transport="auto"`` is the socket transport for every pair:
        neither a rank nor the launcher (whose teardown sweeps segments
        only for a job that asked for them) imports ``repro.mpi.shm``.
        A fresh interpreter, because a forked rank inherits this one's
        ``sys.modules``."""
        script = textwrap.dedent(
            """
            import sys
            from repro.mpi import WorldConfig, run_spmd

            def main(comm):
                loaded = "repro.mpi.shm" in sys.modules
                return comm.world.transport.kind, loaded, comm.allreduce(comm.rank)

            out = run_spmd(3, main, config=WorldConfig(backend="process"), timeout=60.0)
            assert out == [("unix", False, 3)] * 3, out
            assert "repro.mpi.shm" not in sys.modules
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_single_rank_world_forms(self):
        assert run_spmd(1, lambda c: (c.rank, c.size), config=PROCESS) == [(0, 1)]

    def test_ranks_that_return_at_once(self):
        """A child whose rank returns immediately sends its result on the
        connection its hello went up, right behind the welcome; the
        launcher must read hello and result as two frames, launch after
        launch."""
        for _ in range(40):
            assert run_spmd(10, lambda c: c.rank, config=PROCESS) == list(range(10))

    def test_sockdir_holds_the_rendezvous_and_data_sockets(self):
        """One rendezvous socket and one data listener per rank: nothing
        else is bound in the job's socket directory."""

        def listing(comm):
            comm.barrier()
            sockdir = os.path.dirname(comm.world.transport._peers[comm.rank])
            return sorted(os.listdir(sockdir))

        expected = ["rank0.sock", "rank1.sock", "rank2.sock", "rendezvous.sock"]
        assert run_spmd(3, listing, config=PROCESS) == [expected] * 3

    def test_bootstrap_error_terminates_children_before_joining(self, monkeypatch):
        """However the launcher leaves the bootstrap, children still
        waiting for their welcome are terminated, not joined one timeout
        at a time."""

        def broken(*args, **kwargs):
            raise TransportError("malformed frame during bootstrap")

        monkeypatch.setattr(procbackend, "serve_rendezvous", broken)
        start = time.monotonic()
        with pytest.raises(TransportError, match="malformed frame"):
            run_spmd(4, lambda c: c.rank, config=PROCESS)
        assert time.monotonic() - start < 5.0

    @staticmethod
    def _misbehave(monkeypatch, before: dict):
        """In the next forked world, rank *r* first runs
        ``before[r](rendezvous, rank, addr)`` — which may never return —
        and then rendezvouses as ever."""
        real = procbackend.child_rendezvous

        def child_rendezvous(rendezvous, rank, addr):
            if rank in before:
                before[rank](rendezvous, rank, addr)
            return real(rendezvous, rank, addr)

        monkeypatch.setattr(procbackend, "child_rendezvous", child_rendezvous)

    def test_child_dying_between_connect_and_hello_is_named(self, monkeypatch):
        """EOF on a connection that never said hello is not the job's
        TransportError: the launcher keeps accepting and its liveness tick
        names the dead rank with its exit code."""

        def die(rendezvous, rank, addr):
            connect(rendezvous)
            os._exit(3)

        self._misbehave(monkeypatch, {1: die})
        with pytest.raises(ChildExitError) as excinfo:
            run_spmd(3, lambda c: c.rank, config=PROCESS, timeout=30.0)
        assert (excinfo.value.rank, excinfo.value.exit_code) == (1, 3)

    def test_child_dying_between_hello_and_welcome_is_named(self, monkeypatch):
        """The welcome to a child that died after its hello cannot be
        sent; the launcher ignores that, welcomes the others, and
        collecting results names the dead rank."""

        def hello_and_die(rendezvous, rank, addr):
            send_frame(connect(rendezvous), ("hello", rank, addr))
            os._exit(4)

        def late(rendezvous, rank, addr):
            time.sleep(0.5)  # so rank 1 is gone before anyone is welcomed

        self._misbehave(monkeypatch, {0: late, 1: hello_and_die})
        with pytest.raises(ChildExitError) as excinfo:
            run_spmd(3, lambda c: c.rank, config=PROCESS, timeout=30.0)
        assert (excinfo.value.rank, excinfo.value.exit_code) == (1, 4)

    @pytest.mark.parametrize("claimed", [0, 4], ids=["duplicate", "out-of-range"])
    def test_hello_with_a_bad_rank_fails_the_bootstrap(self, monkeypatch, claimed):
        """A second hello for one rank, or one for a rank the world does
        not have, is a TransportError, and the children waiting for a
        welcome are terminated, not waited for."""
        real = procbackend.child_rendezvous

        def impostor(rendezvous, rank, addr):
            return real(rendezvous, claimed if rank == 1 else rank, addr)

        monkeypatch.setattr(procbackend, "child_rendezvous", impostor)
        start = time.monotonic()
        with pytest.raises(TransportError, match="unexpected rendezvous frame"):
            run_spmd(4, lambda c: c.rank, config=PROCESS)
        assert time.monotonic() - start < 5.0

    def test_deadline_holds_while_a_hello_is_awaited(self, monkeypatch):
        """A child that connects and then says nothing cannot hold the
        launcher past the job's wall-clock budget."""

        def mute(rendezvous, rank, addr):
            with connect(rendezvous):
                time.sleep(60)

        self._misbehave(monkeypatch, {1: mute})
        start = time.monotonic()
        with pytest.raises(TimeoutError_, match="rank bootstrap"):
            run_spmd(2, lambda c: c.rank, config=PROCESS, timeout=2.0)
        assert time.monotonic() - start < 8.0


# ---------------------------------------------------------------------------
# mphrun --backend process (true MIME: each rank its own executable)
# ---------------------------------------------------------------------------


@pytest.fixture
def program_module(tmp_path, monkeypatch):
    """A throwaway registry module importable by exec'd children (the
    module directory is prepended to PYTHONPATH, which run_exec_job
    passes through to every child)."""
    mod = tmp_path / "proc_demo_models.py"
    mod.write_text(
        textwrap.dedent(
            """
            import os

            def atm(world, env):
                print(f"atm pid {os.getpid()} rank {world.rank}", flush=True)
                return world.allreduce(1)

            def ocn(world, env):
                print(f"ocn pid {os.getpid()} rank {world.rank}", flush=True)
                return world.allreduce(1)

            def hard_exit(world, env):
                os._exit(3)

            PROGRAMS = {"atm": atm, "ocn": ocn, "hard_exit": hard_exit}
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv(
        "PYTHONPATH",
        str(tmp_path)
        + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""),
    )
    sys.modules.pop("proc_demo_models", None)
    yield "proc_demo_models"
    sys.modules.pop("proc_demo_models", None)


class TestMphrunProcessBackend:
    def test_mime_job_with_per_process_logs(self, program_module, tmp_path, capsys):
        log_dir = tmp_path / "logs"
        code = main(
            [
                "--spec",
                "-np 2 atm : -np 1 ocn",
                "--programs",
                program_module,
                "--backend",
                "process",
                "--log-dir",
                str(log_dir),
                "--timeout",
                "60",
            ]
        )
        assert code == 0
        assert "3 processes" in capsys.readouterr().out
        # one stdout file per rank, each holding a distinct child pid
        pids = set()
        for label in ("atm.0", "atm.1", "ocn.0"):
            text = (log_dir / f"{label}.log").read_text()
            assert label.split(".")[0] in text
            pids.add(text.split("pid ")[1].split()[0])
        assert len(pids) == 3  # genuinely separate OS processes
        assert os.getpid() not in {int(p) for p in pids}

    def test_shm_transport_flag(self, program_module, capsys):
        """--transport shm runs the exec'd MIME job over the mmap rings
        (and must leave no segment files behind)."""
        from repro.mpi.shm import list_segments

        code = main(
            [
                "--spec",
                "-np 2 atm : -np 1 ocn",
                "--programs",
                program_module,
                "--backend",
                "process",
                "--transport",
                "shm",
                "--timeout",
                "60",
            ]
        )
        assert code == 0
        assert "3 processes" in capsys.readouterr().out
        assert list_segments("repro-mpi-") == []

    def test_mphchild_takes_no_rendezvous_or_scheme(self, capsys):
        """The child derives the rendezvous from --sockdir; there is no
        address, scheme, socket family or tree arity left to pass."""
        base = ["--rank", "0", "--nprocs", "1", "--sockdir", "/nonexistent"]
        for stale in (
            ["--rendezvous", "unix:/x"],
            ["--bootstrap", "tree"],
            ["--family", "unix"],
            ["--fanout", "8"],
        ):
            with pytest.raises(SystemExit):
                mphchild.main(base + stale)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_child_exit_code_fails_job(self, program_module, capsys):
        """Satellite: a nonzero component exit fails the whole job with
        the failing component named on stderr and exit status 1."""
        code = main(
            [
                "--spec",
                "-np 1 atm : -np 1 hard_exit",
                "--programs",
                program_module,
                "--backend",
                "process",
                "--timeout",
                "60",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "hard_exit" in err
        assert "exited with code 3" in err

    @pytest.mark.parametrize(
        "flags, complaint",
        [
            (["--transport", "shm"], "transport 'shm' requires backend='process'"),
            (["--log-dir", "logs"], "log_dir requires backend='process'"),
        ],
        ids=["transport", "log-dir"],
    )
    def test_thread_backend_rejects_process_only_flags(
        self, program_module, capsys, tmp_path, monkeypatch, flags, complaint
    ):
        """--backend thread builds the same WorldConfig as --backend
        process, so a process-only flag is an error, not silently
        dropped — and nothing ran."""
        monkeypatch.chdir(tmp_path)
        code = main(["--spec", "-np 1 atm", "--programs", program_module] + flags)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("mphrun: error: ") and complaint in captured.err
        assert "atm pid" not in captured.out and not (tmp_path / "logs").exists()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_nodes_flag_shapes_the_world_on_both_backends(self, backend, tmp_path, monkeypatch, capsys):
        """--nodes places the ranks, and that placement is the world's
        node map, whichever backend runs it (the thread world used to get
        one node for the same command line)."""
        (tmp_path / "topo_models.py").write_text(
            "PROGRAMS = {'topo': lambda world, env: world.world.node_map}\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("PYTHONPATH", str(tmp_path) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argv = ["--spec", "-np 2 topo : -np 2 topo", "--programs", "topo_models"]
        code = main(argv + ["--nodes", "2", "--cpus-per-node", "2", "--backend", backend])
        sys.modules.pop("topo_models", None)
        assert code == 0
        assert capsys.readouterr().out.count("-> (0, 0, 1, 1)") == 2

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_nodes_flag_keeps_a_job_that_fits_on_one_node(self, backend, tmp_path, monkeypatch, capsys):
        """Six ranks on ``--nodes 2 --cpus-per-node 8`` all fit on node 0,
        so no collective crosses a node: the world's star is flat."""
        (tmp_path / "flat_models.py").write_text(
            "PROGRAMS = {'flat': lambda world, env: (world._hierarchy() is None, "
            "world.allreduce(1))}\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("PYTHONPATH", str(tmp_path) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argv = ["--spec", "-np 3 flat : -np 3 flat", "--programs", "flat_models"]
        code = main(argv + ["--nodes", "2", "--cpus-per-node", "8", "--backend", backend])
        sys.modules.pop("flat_models", None)
        assert code == 0
        assert capsys.readouterr().out.count("-> (True, 6)") == 2


# ---------------------------------------------------------------------------
# A rank blocked in recv wakes on what another process or thread decides
# ---------------------------------------------------------------------------


def _blocked_seconds(comm, source, expected):
    """Seconds this rank spent in a receive that ended in *expected*."""
    t0 = time.monotonic()
    try:
        comm.recv(source=source, tag=9)
    except expected:
        return time.monotonic() - t0
    return None


@pytest.mark.parametrize("transport", ["unix", "shm"])
class TestBlockedRankWakes:
    def test_wakes_on_peer_abort(self, transport):
        """The peer's abort frame ends the receive within a second of
        the abort."""

        def survivor(comm):
            return _blocked_seconds(comm, 1, AbortError)

        def aborter(comm):
            time.sleep(0.5)
            raise RuntimeError("the peer gives up")

        cfg = WorldConfig(backend="process", transport=transport)
        results = procbackend.run_procs([survivor, aborter], cfg, timeout=60.0)
        assert isinstance(results[1].exception, RuntimeError)
        assert results[0].value is not None, results[0].exception
        assert results[0].value < 0.5 + 1.0

    def test_wakes_on_failure_pulse_after_peer_exit(self, transport):
        """A wildcard receive is not failed by the peer's death itself;
        the rank's own watchdog finds it stalled on a dead rank and its
        failure pulse ends the receive within a second."""

        def survivor(comm):
            assert comm.recv(source=1, tag=1) == "hello"
            return _blocked_seconds(comm, ANY_SOURCE, ProcessFailedError)

        def leaver(comm):
            comm.send("hello", 0, tag=1)
            os._exit(4)

        cfg = WorldConfig(backend="process", transport=transport, deadlock_grace=0.2)
        results = procbackend.run_procs([survivor, leaver], cfg, timeout=60.0)
        assert isinstance(results[1].exception, ChildExitError)
        assert results[0].value is not None, results[0].exception
        assert results[0].value < 1.0
