"""The process backend: every MPI rank is a real OS process.

The thread backend runs every simulated rank inside one interpreter — the
one substitution that least resembles the paper's platforms, where each
MPH component is a separate executable on distributed memory.  This
module restores the real thing, following the rank-bootstrap shape of
the MPD process-management papers (Butler, Gropp & Lusk): a parent
process plays the *process manager*, children rendezvous with it over a
control socket, and the parent wires them into one world by exchanging
the rank → address map.

Bootstrap handshake (all frames use the transport's length-prefixed
pickle framing, :func:`~repro.mpi.transport.send_frame`):

1. The parent binds a rendezvous listener — always a Unix-domain socket
   at a fixed name in the job's private socket directory — and spawns
   ``nprocs`` children (:func:`run_procs`: ``fork`` for a rank given as
   a callable, ``exec`` of ``python -m repro.tools.mphchild`` for an
   :class:`~repro.mpi.executor.ExecRank`).
2. Each child binds its own *data* listener (Unix or TCP, per
   ``config.transport``) — before anyone learns its address, so no
   sender can race it — then exchanges addresses with the parent through
   a fanout-ary relay tree (:mod:`repro.mpi.bootstrap`): hellos
   aggregate upward, the welcome payload is pickled once and relayed
   downward as opaque bytes, and each child then *registers* a direct
   parent connection.
3. Every child ends up holding the full rank → address map, the
   :class:`~repro.mpi.world.WorldConfig`, its per-rank launcher
   metadata, and a direct control connection to the parent.
4. Each child builds a :class:`~repro.mpi.transport.SocketTransport` over
   the peer map, a :class:`ProcessWorld` replica, and its ``COMM_WORLD``
   handle, then runs the rank function
   (:func:`~repro.mpi.executor.run_rank`, the same body a rank thread
   runs).
5. The child reports ``("result", rank, ok, payload, traffic)`` and then
   *keeps serving inbound connections* until the parent's
   ``("shutdown",)`` frame — sent only after every result is in — so a
   fast rank can never tear down its mailbox while a slow peer still has
   eager sends in flight.

A child that dies without reporting (segfault, ``sys.exit(3)``, killed)
is detected by the parent polling process liveness; it synthesizes a
:class:`~repro.errors.LaunchError` naming the component and exit code —
nonzero component exits fail the whole job instead of being swallowed.

Every child holds its own :class:`ProcessWorld` replica.  That works for
*all* existing features (collectives, split/dup/create, intercomm,
persistent requests, ssend) because the substrate has exactly one remote
seam — :meth:`World.deliver <repro.mpi.world.World.deliver>` — and only
two kinds of cross-rank agreement: message delivery (now framed over the
socket) and context-id allocation, which is made collision-free by
giving each rank a disjoint id subspace (see
:meth:`ProcessWorld.alloc_context_pair`).
"""

from __future__ import annotations

import multiprocessing.connection
import os
import pickle
import queue
import shutil
import socket
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Optional, Sequence

from repro.errors import (
    AbortError,
    ChildExitError,
    LaunchError,
    ReproError,
    TimeoutError_,
    TransportError,
)
from repro.mpi.bootstrap import child_tree_exchange, serve_tree_rendezvous
from repro.mpi.executor import ExecRank, ProcResult, run_rank
from repro.mpi.transport import (
    SocketTransport,
    make_listener,
    recv_frame,
    send_frame,
)
from repro.mpi.world import World, WorldConfig

#: How long a child lingers for the parent's shutdown frame.
_CHILD_CTRL_TIMEOUT = 120.0
#: Grace for siblings to unwind after a child dies without reporting.
_DEATH_GRACE = 3.0


class ProcessWorld(World):
    """One rank's world replica on the process backend.

    Differences from the shared thread-backend :class:`World`:

    * **Disjoint context-id subspaces.**  Communicator creation allocates
      a context pair on one agreeing rank (the root of a split, the
      leader of an intercomm) and distributes it by message.  With a
      world replica per process there is no shared counter, so each rank
      allocates from its own arithmetic progression — rank *r* hands out
      pairs starting at ``2 + 2r`` with stride ``2 * nprocs``.  Any two
      ranks' allocations are disjoint by construction, and a pair stays
      consecutive ``(n, n+1)`` as the communicator code assumes.
    * **Abort broadcast.**  A local abort is forwarded to every peer as
      an ``abort`` control frame so blocked siblings unwind instead of
      hanging until the parent's wall-clock timeout; remote aborts are
      recorded without re-broadcast (no storms).
    * **Local-only deadlock scan.**  The all-blocked watchdog sees only
      this process's single rank, so for ``nprocs > 1`` it can never
      declare a (necessarily global) deadlock; the parent's timeout is
      the cross-process backstop.
    """

    def __init__(self, nprocs: int, config: Optional[WorldConfig], rank: int):
        super().__init__(nprocs, config)
        #: This process's world rank (a thread-backend World has no
        #: single rank; a process world does).
        self.my_rank = rank
        self._ctx_stride = 2 * nprocs
        self._next_ctx = 2 + 2 * rank
        self._abort_broadcast = threading.Event()

    def alloc_context_pair(self) -> tuple[int, int]:
        with self._ctx_lock:
            pair = (self._next_ctx, self._next_ctx + 1)
            self._next_ctx += self._ctx_stride
            return pair

    def abort(self, exc: AbortError) -> None:
        super().abort(exc)
        transport = self.transport
        if transport is not None and not self._abort_broadcast.is_set():
            self._abort_broadcast.set()
            transport.broadcast_abort(self.my_rank, str(exc))

    def abort_from_remote(self, origin: int, message: str) -> None:
        """Record an abort initiated by a peer (no re-broadcast)."""
        self._abort_broadcast.set()
        World.abort(self, AbortError(message, origin_rank=origin))


def rendezvous_prefix(namespace: Optional[str] = None) -> str:
    """The rendezvous-directory (and thereby shm-segment) name prefix for
    a job, optionally namespaced.

    The per-job isolation seam used by the MPH service: every job the
    service launches passes its job id as *namespace*, so its sockets and
    shared-memory segments are attributable — ``list_segments`` /
    ``sweep_segments`` with this prefix see exactly that job's leftovers
    and nothing else.  The namespace is sanitized to filesystem-safe
    characters and truncated, keeping Unix socket paths under the
    platform's ~108-byte limit.
    """
    if not namespace:
        return "repro-mpi-"
    clean = "".join(c if c.isalnum() or c in "._" else "-" for c in str(namespace))
    return f"repro-mpi-{clean[:24]}-"


def _rendezvous_path(sockdir: str) -> str:
    """The launcher's rendezvous socket: like every control socket, a
    Unix path in the job's socket directory, so a child needs nothing
    but the directory to find it — whatever family the data plane uses."""
    return os.path.join(sockdir, "rendezvous.sock")


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------


def child_session(
    rank: int,
    nprocs: int,
    family: str,
    sockdir: str,
    run: Callable[[Any, Any], Any],
    *,
    fanout: int = 8,
) -> None:
    """One child's whole life: handshake, run the rank, report, linger.

    *run* is called as ``run(comm_world, meta)`` where *meta* is the
    per-rank launcher metadata from the welcome frame.  Shared by the
    fork children of :func:`run_procs` (which close over the rank
    function directly) and the exec children of ``repro.tools.mphchild``
    (which resolve the function from *meta*).

    *family* is the socket family of the child's *data* listener;
    *nprocs*/*fanout* shape the bootstrap relay tree (the parent passes
    them down, since a child cannot read the
    :class:`~repro.mpi.world.WorldConfig` it has yet to receive).
    """
    listener, addr = make_listener(family, os.path.join(sockdir, f"rank{rank}.sock"))
    peers, config, meta, ctrl = child_tree_exchange(
        ("unix", _rendezvous_path(sockdir)), rank, nprocs, fanout, sockdir, addr
    )
    try:
        world = ProcessWorld(nprocs, config, rank)
        if config.transport in ("auto", "shm"):
            # MPICH-G2-style per-pair protocol selection: shm rings for
            # same-node peers, the bootstrap sockets otherwise.  The
            # segment prefix is derived from the job's private sockdir,
            # so segment names are unique per job and the parent can
            # sweep leftovers by prefix.
            from repro.mpi.shm import ShmTransport

            transport = ShmTransport(
                rank,
                nprocs,
                listener,
                peers,
                config=config,
                prefix=os.path.basename(sockdir),
                topology=world.topology,
            )
        else:
            transport = SocketTransport(rank, nprocs, listener, peers)
        # A peer dying mid-transfer must surface as a rank failure so
        # posted receives raise instead of hanging — on shm there is no
        # socket to error out of a ring read (only the doorbell conn's
        # EOF), and even on plain sockets a receive with no in-flight
        # frame would otherwise park forever.
        transport.on_peer_lost = world.proc_failed
        transport.deliver_local = world.mailboxes[rank].deliver
        transport.on_abort = world.abort_from_remote
        transport.on_error = lambda exc: world.abort(
            AbortError(f"transport stream failed on rank {rank}: {exc}")
        )
        transport.on_wire = world.record_wire
        world.transport = transport
        transport.start()

        result = run_rank(world, rank, lambda comm: run(comm, meta))
        ok = result.exception is None
        payload = result.value if ok else result.exception
        traffic = world.traffic_snapshot()
        frame = ("result", rank, ok, payload, traffic)
        try:
            pickle.dumps(frame)
        except Exception as pickle_exc:  # noqa: BLE001 - degrade, don't die
            what = "returned a value" if ok else "raised an exception"
            frame = (
                "result",
                rank,
                False,
                ReproError(
                    f"rank {rank} {what} that cannot cross the process "
                    f"boundary ({pickle_exc}): {payload!r}"
                ),
                traffic,
            )
        send_frame(ctrl, frame)

        # Linger until the parent has every result: a peer may still be
        # draining eager sends into our mailbox, and tearing the
        # transport down early would turn its sends into hard errors.
        try:
            recv_frame(ctrl, timeout=_CHILD_CTRL_TIMEOUT)
        except TransportError:
            pass
        transport.close()
        world.progress.shutdown()
    finally:
        try:
            ctrl.close()
        except OSError:  # pragma: no cover - defensive
            pass


def _child_main(rendezvous: "_Rendezvous", rank: int, fn, log_path: Optional[str]) -> None:
    """What a freshly forked child does: claim its log file, then become
    the rank — by running *fn* (fork inheritance carries it, so closures
    work without being picklable), or, for an
    :class:`~repro.mpi.executor.ExecRank`, by ``exec``-ing an independent
    ``python -m repro.tools.mphchild``: true MIME in the paper's sense,
    the child learns *what to run* from its welcome frame's per-rank
    meta (see :mod:`repro.tools.mphchild`)."""
    if log_path is not None:
        fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
    nprocs, family, sockdir = rendezvous.nprocs, rendezvous.family, rendezvous.sockdir
    fanout = rendezvous.config.bootstrap_fanout
    if not isinstance(fn, ExecRank):
        child_session(rank, nprocs, family, sockdir, lambda comm, meta: fn(comm), fanout=fanout)
        return
    argv = [sys.executable, "-m", "repro.tools.mphchild"]
    argv += ["--rank", str(rank), "--nprocs", str(nprocs), "--family", family]
    argv += ["--sockdir", sockdir, "--fanout", str(fanout)]
    # The child must import repro regardless of how the parent got it
    # onto sys.path (installed, PYTHONPATH=src, pytest rootdir magic).
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = pkg_root + (os.pathsep + inherited if inherited else "")
    os.execv(sys.executable, argv)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Child:
    """One spawned rank: the process (``proc``) the rendezvous polls,
    terminates and reaps, and the names failure reports give it.
    Constructing it forks the child (see :func:`_child_main`)."""

    def __init__(self, rendezvous: "_Rendezvous", rank: int, label: str, fn, log_path):
        self.rank, self.label = rank, label
        # The fork context is asked for here, not at import: a platform
        # without one still imports the package and runs thread worlds.
        self.proc = multiprocessing.get_context("fork").Process(
            target=_child_main, args=(rendezvous, rank, fn, log_path), name=f"mpi-proc-{rank}"
        )
        self.proc.start()

    def reap(self, timeout: float) -> None:
        """Give the child *timeout* to exit, then kill it.  The sentinel
        wakes us the moment a forked child exits; an exec'd one closed
        it at ``execv`` (``Process.join(timeout)`` would go on to block
        in ``waitpid`` for as long as the program cares to run), so the
        rest of the wait polls, backing off like ``subprocess`` does."""
        deadline, nap = time.monotonic() + timeout, 0.0
        multiprocessing.connection.wait([self.proc.sentinel], timeout)
        while self.proc.exitcode is None and time.monotonic() < deadline:
            time.sleep(nap)  # at first just a yield: a forked child is exiting as we look
            nap = min(2 * nap + 0.0001, 0.05)
        if self.proc.exitcode is None:  # stuck: SIGTERM ignored, or a thread outlives the rank
            self.proc.kill()
        self.proc.join()


class _Rendezvous:
    """The launcher's half of a process world — the *process manager*:
    serve the address exchange, collect results, detect silent deaths,
    shut everyone down, and sweep what the job left behind.  Each stage
    :func:`run_procs` drives is a method."""

    def __init__(self, nprocs: int, config: WorldConfig, namespace: Optional[str] = None):
        self.nprocs = nprocs
        self.config = config
        #: Socket family of the children's data listeners.
        self.family = "tcp" if config.transport == "tcp" else "unix"
        self.sockdir = tempfile.mkdtemp(prefix=rendezvous_prefix(namespace))
        self.listener, _ = make_listener("unix", _rendezvous_path(self.sockdir))

    def bootstrap(self, conns, children, results, ranks, deadline) -> None:
        """One aggregated hellos frame from the relay root, one
        once-pickled welcome back (carrying each exec'd rank's meta),
        then a direct ``register`` connection per child, collected into
        *conns* for the result/shutdown protocol."""
        metas = [fn.meta if isinstance(fn, ExecRank) else None for fn in ranks]

        def tick() -> None:
            self._check_deadline(deadline, "rank bootstrap")
            dead = self._dead_without_result(children, results, conns)
            if dead:
                # A child died mid-exchange: its whole subtree stalls, so
                # nobody can form a world.
                self._fail_bootstrap(dead, children, results)

        self.listener.settimeout(0.2)
        serve_tree_rendezvous(
            self.listener,
            self.nprocs,
            self.config,
            metas if any(m is not None for m in metas) else None,
            conns,
            on_tick=tick,
        )

    def _fail_bootstrap(self, dead, children, results) -> None:
        """A child died before the world formed: record it, terminate the
        siblings that can never proceed, and abandon the bootstrap."""
        for h in dead:
            results[h.rank] = ProcResult(rank=h.rank, exception=self._death_error(h))
        for h in children:
            h.proc.terminate()
        for rank in range(self.nprocs):
            if rank not in results:
                results[rank] = ProcResult(
                    rank=rank,
                    exception=LaunchError(
                        f"rank {rank} was terminated because a "
                        f"sibling died during bootstrap"
                    ),
                )
        raise _BootstrapDead()

    def collect(self, conns, children, results, deadline) -> None:
        """Read one result frame per child, polling liveness so a child
        that dies without reporting is classified instead of awaited."""
        inbox: queue.Queue = queue.Queue()

        def reader(rank: int, conn: socket.socket) -> None:
            try:
                frame = recv_frame(conn, timeout=None)
            except (TransportError, OSError) as exc:
                inbox.put((rank, exc))
            else:
                inbox.put((rank, frame))

        for rank, conn in conns.items():
            threading.Thread(
                target=reader, args=(rank, conn), daemon=True,
                name=f"rendezvous-reader-{rank}",
            ).start()

        death_deadline = None
        while len(results) < self.nprocs:
            now = time.monotonic()
            if death_deadline is not None and now >= death_deadline:
                # Grace expired: whoever still has no result is wedged on
                # the dead rank; terminate and synthesize.  Who died on
                # its own is decided before terminating, so our SIGTERM
                # is never reported as a component's exit code.
                for rank, h in enumerate(children):
                    if rank not in results:
                        died = h.proc.exitcode not in (0, None)
                        h.proc.terminate()
                        results[rank] = ProcResult(
                            rank=rank,
                            exception=self._death_error(h)
                            if died
                            else LaunchError(
                                f"component {h.label!r} (world rank {rank}) "
                                f"was terminated: a sibling died without "
                                f"reporting a result"
                            ),
                        )
                return
            self._check_deadline(deadline, "job")
            dead = self._dead_without_result(children, results, None)
            if dead and death_deadline is None:
                death_deadline = now + _DEATH_GRACE
            try:
                rank, frame = inbox.get(timeout=0.2)
            except queue.Empty:
                continue
            if rank in results:
                continue
            if isinstance(frame, tuple) and frame and frame[0] == "result":
                _, rank_, ok, payload, traffic = frame
                results[rank] = ProcResult(
                    rank=rank,
                    value=payload if ok else None,
                    exception=None if ok else payload,
                    traffic=traffic,
                )
            # EOF (None) or a transport error: the liveness poll above
            # will classify the death on a later iteration.

    def _dead_without_result(self, children, results, conns) -> list:
        return [
            h
            for rank, h in enumerate(children)
            if rank not in results and not (conns and rank in conns) and h.proc.exitcode is not None
        ]

    def shutdown(self, conns, children) -> None:
        """Release the lingering children and reap them."""
        for conn in conns.values():
            try:
                send_frame(conn, ("shutdown",))
            except (TransportError, OSError):
                pass
        for conn in conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for child in children:
            child.reap(5.0)

    def sweep(self) -> None:
        """Remove everything the job owned outside its processes."""
        try:
            self.listener.close()
        except OSError:  # pragma: no cover - defensive
            pass
        # Sweep any shm segments of this job that a crashed child never
        # unlinked itself (segment names derive from the sockdir name,
        # so the prefix is job-unique).  Runs on every exit path of
        # run_procs — including ChildExitError — so /dev/shm can't leak.
        from repro.mpi.shm import sweep_segments

        sweep_segments(os.path.basename(self.sockdir))
        shutil.rmtree(self.sockdir, ignore_errors=True)

    @staticmethod
    def _death_error(h) -> ChildExitError:
        return ChildExitError(
            f"component {h.label!r} (world rank {h.rank}) exited with "
            f"code {h.proc.exitcode} without reporting a result",
            rank=h.rank,
            label=h.label,
            exit_code=h.proc.exitcode,
        )

    @staticmethod
    def _check_deadline(deadline: float, what: str) -> None:
        if time.monotonic() >= deadline:
            raise TimeoutError_(f"{what} exceeded its wall-clock budget")


class _BootstrapDead(Exception):
    """Internal: bootstrap aborted because a child died before registering."""


def run_procs(
    nprocs: int,
    ranks: Sequence[Any],
    config: WorldConfig,
    timeout: float = 120.0,
    log_dir: Optional[str] = None,
    labels: Optional[Sequence[str]] = None,
    namespace: Optional[str] = None,
) -> list[ProcResult]:
    """Run one rank function per rank, each as its own **OS process** —
    the process leg of :func:`repro.mpi.executor.launch`, which validates
    before and classifies the root cause after.  Same contract as the
    thread leg (a per-rank :class:`~repro.mpi.executor.ProcResult` list),
    but every rank owns an interpreter, a world replica, and a transport
    (see :func:`_child_main` for how a rank is forked or exec'd).

    With *log_dir*, each child's stdout+stderr are redirected at the OS
    level to ``<log_dir>/<label>.log`` — real per-process log files, not
    the thread backend's ``sys.stdout`` proxy.

    *namespace* scopes the job's rendezvous directory and shm segments
    under :func:`rendezvous_prefix` (the MPH service's per-job isolation
    seam).

    Raises :class:`~repro.errors.TimeoutError_` if the job exceeds
    *timeout*; a child that dies without reporting becomes a
    :class:`~repro.errors.LaunchError` result for its rank.
    """
    labels = list(labels) if labels is not None else [f"rank{r}" for r in range(nprocs)]
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
    rendezvous = _Rendezvous(nprocs, config, namespace)
    children: list[_Child] = []
    results: dict[int, ProcResult] = {}
    conns: dict[int, socket.socket] = {}
    try:
        for rank, fn in enumerate(ranks):  # spawn
            log_path = None if log_dir is None else os.path.join(log_dir, f"{labels[rank]}.log")
            children.append(_Child(rendezvous, rank, labels[rank], fn, log_path))
        deadline = time.monotonic() + timeout
        rendezvous.bootstrap(conns, children, results, ranks, deadline)
        rendezvous.collect(conns, children, results, deadline)
    except _BootstrapDead:
        pass  # every rank already has its result, the siblings are terminated
    except BaseException:
        # However the launch was cut short (a failed spawn, the deadline,
        # a malformed frame, an interrupt), children still mid-bootstrap
        # or mid-run would never see the shutdown below: terminate them
        # so the joins return at once instead of timing out one by one.
        for child in children:
            child.proc.terminate()
        raise
    finally:
        try:
            rendezvous.shutdown(conns, children)
        finally:
            rendezvous.sweep()
    return [results[r] for r in sorted(results)]
