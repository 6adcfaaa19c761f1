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
   ``nprocs`` children (:class:`ProcLaunch`: ``fork`` for a rank given as
   a callable, ``exec`` of ``python -m repro.tools.mphchild`` for an
   :class:`~repro.mpi.executor.ExecRank` — or, when the launch holds a
   :class:`RankPool`, an assignment frame to a process that *parked*
   after an earlier job, forking only the shortfall).
2. Each child binds its own *data* listener — before anyone learns its
   address, so no sender can race it — then connects once to the
   rendezvous socket and says hello with that address
   (:mod:`repro.mpi.bootstrap`, a star around the parent).
3. When every rank has said hello, the parent pickles the welcome
   payload once and answers each child on its own connection: every
   child ends up holding the full rank → address map, the
   :class:`~repro.mpi.world.WorldConfig`, its per-rank launcher
   metadata, and that connection to the parent.
4. Each child builds a :class:`~repro.mpi.transport.SocketTransport` over
   the peer map (a :class:`~repro.mpi.shm.ShmTransport` when the job asks
   for ``"shm"``), a :class:`ProcessWorld` replica, and its ``COMM_WORLD``
   handle, then runs the rank function
   (:func:`~repro.mpi.executor.run_rank`, the same body a rank thread
   runs).
5. The child reports ``("result", rank, ok, payload, traffic,
   cpu_seconds, wall_seconds)`` and then
   *keeps serving inbound connections* until the parent's next frame —
   sent only after every result is in — so a fast rank can never tear
   down its mailbox while a slow peer still has eager sends in flight.
   A ``("run", meta)`` frame runs the rank again on the same world (a
   kept-open :class:`ProcLaunch`: the service's resident worlds); on
   ``("shutdown",)`` it closes its transport and exits — or, a pool's
   process, acks and parks for its next assignment.

A child that dies without reporting (segfault, ``sys.exit(3)``, killed)
is detected by the parent polling process liveness; it synthesizes a
:class:`~repro.errors.LaunchError` naming the component and exit code —
nonzero component exits fail the whole job instead of being swallowed.

Every child holds its own :class:`ProcessWorld` replica.  That works for
*all* existing features (collectives, split/dup/create, comm_join,
ssend) because the substrate has exactly one remote
seam — :meth:`World.deliver <repro.mpi.world.World.deliver>` — and only
two kinds of cross-rank agreement: message delivery (now framed over the
socket) and context-id allocation, which is made collision-free by
giving each rank a disjoint id subspace (see
:meth:`ProcessWorld.alloc_context_pair`).
"""

from __future__ import annotations

import gc
import multiprocessing.connection
import multiprocessing.util
import os
import pickle
import selectors
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import weakref
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import (
    AbortError,
    ChildExitError,
    LaunchError,
    ReproError,
    TimeoutError_,
    TransportError,
)
from repro.mpi.bootstrap import child_rendezvous, serve_rendezvous
from repro.mpi.corebudget import (
    THREAD_VARS,
    apply_thread_budget,
    forking_under_budget,
    thread_budget,
)
from repro.mpi.executor import ExecRank, ProcResult, run_rank
from repro.mpi.transport import (
    WIRE_PICKLE_PROTOCOL,
    SocketTransport,
    make_listener,
    pack_frame,
    recv_frame,
    send_frame,
)
from repro.mpi.world import World, WorldConfig

#: Grace for siblings to unwind after a child dies without reporting.
_DEATH_GRACE = 3.0
#: How long a released child gets to exit (or a parking one to ack)
#: before it is killed.
_KILL_GRACE = 5.0


class ProcessWorld(World):
    """One rank's world replica on the process backend.

    Differences from the shared thread-backend :class:`World`:

    * **Disjoint context-id subspaces.**  Communicator creation allocates
      a context pair on one agreeing rank (the root of a split, the
      leader of a ``comm_join``) and distributes it by message.  With a
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
    * **The rank drives its own sockets.**  No thread reads the
      transport: a blocked call turns its progress loop
      (:meth:`~repro.mpi.transport.SocketTransport.progress`) on the
      rank's own thread, so a process rank runs its main thread and, while
      it is blocked, the watchdog — nothing else.  A rank that computes
      reads nothing until its next MPI call (the kernel buffers, as MPI
      permits), and a failure notice arrives at that call.
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

    def rank_restarted(self) -> None:
        """This process's rank runs again (a kept-open launch's next
        run): live again to the deadlock scan."""
        with self._state_lock:
            self._alive.add(self.my_rank)


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
    """The launcher's rendezvous socket: a fixed name in the job's socket
    directory, so a child needs nothing but the directory to find it."""
    return os.path.join(sockdir, "rendezvous.sock")


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------


def child_session(
    rank: int, nprocs: int, sockdir: str, run: Callable[[Any, Any], Any]
) -> None:
    """One child's whole life: handshake, then run the rank and report
    once per run the launcher sends (:class:`ProcLaunch`), lingering
    between runs and until the shutdown.

    *run* is called as ``run(comm_world, meta)`` where *meta* is the
    per-rank launcher metadata of the welcome frame, or of the ``("run",
    meta)`` frame that started a later run.  Shared by the
    fork children of a :class:`ProcLaunch` (which close over the rank
    function directly) and the exec children of ``repro.tools.mphchild``
    (which resolve the function from *meta*).

    *nprocs* is the world's size (the parent passes it down, since a
    child cannot read the world it has yet to join).
    """
    addr = os.path.join(sockdir, f"rank{rank}.sock")
    listener = make_listener(addr)
    peers, config, meta, ctrl = child_rendezvous(_rendezvous_path(sockdir), rank, addr)
    try:
        world = ProcessWorld(nprocs, config, rank)
        if config.transport == "shm":
            # Rings for same-node peers, the bootstrap sockets otherwise.
            # The segment prefix is derived from the job's private
            # sockdir, so segment names are unique per job and the parent
            # can sweep leftovers by prefix.
            from repro.mpi.shm import ShmTransport

            transport = ShmTransport(
                rank,
                nprocs,
                listener,
                peers,
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
        world.transport = transport

        # This rank is a process: its CPU is the whole process's — BLAS
        # workers and the watchdog included.
        reported = None
        while True:
            result = run_rank(world, rank, lambda comm: run(comm, meta), time.process_time)
            # A result frame counts what its run moved; the world's own
            # counters keep counting from the world's start.
            counted = world.traffic_snapshot()
            traffic = counted if reported is None else counted.since(reported)
            reported = counted
            ok = result.exception is None
            payload = result.value if ok else result.exception
            tail = (traffic, result.cpu_seconds, result.wall_seconds)
            # Pickled once: the bytes that prove the frame can cross are
            # the bytes sent.
            try:
                data = pickle.dumps(
                    ("result", rank, ok, payload, *tail), protocol=WIRE_PICKLE_PROTOCOL
                )
            except Exception as pickle_exc:  # noqa: BLE001 - degrade, don't die
                what = "returned a value" if ok else "raised an exception"
                cannot_cross = ReproError(
                    f"rank {rank} {what} that cannot cross the process "
                    f"boundary ({pickle_exc}): {payload!r}"
                )
                data = pickle.dumps(
                    ("result", rank, False, cannot_cross, *tail),
                    protocol=WIRE_PICKLE_PROTOCOL,
                )
            ctrl.sendall(pack_frame(data))

            # Linger for the next run or the shutdown, with no timeout, as
            # a parked process waits on its park connection: the launcher
            # sends either only once every result is in — a peer may
            # still be draining eager sends into our mailbox until then,
            # and tearing the transport down early would turn its sends
            # into hard errors — and its death is an EOF.  Meanwhile this
            # thread keeps reading the peers' sends: nothing else does,
            # and one larger than a socket buffer completes only when
            # read.
            try:
                transport.progress_until_readable(ctrl)
                frame = recv_frame(ctrl, timeout=None)
            except (TransportError, OSError):
                frame = None
            if not frame or frame[0] != "run":
                break
            meta = frame[1]
            world.rank_restarted()
        transport.close()
        world.progress.shutdown()
    finally:
        try:
            ctrl.close()
        except OSError:  # pragma: no cover - defensive
            pass


def _child_main(
    rendezvous: "_Rendezvous", rank: int, fn, log_path: Optional[str], park: Optional[tuple] = None
) -> None:
    """What a freshly forked child does: claim its log file, then become
    the rank — by running *fn* (fork inheritance carries it, so closures
    work without being picklable); for an
    :class:`~repro.mpi.executor.ExecRank`, by ``exec``-ing an independent
    ``python -m repro.tools.mphchild``: true MIME in the paper's sense,
    the child learns *what to run* from its welcome frame's per-rank
    meta (see :mod:`repro.tools.mphchild`); or, forked for a
    :class:`RankPool` (*park* is its end of the park connection and the
    pool's resolver), by serving assignments, this rank the first."""
    if log_path is not None:
        fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
    nprocs, sockdir = rendezvous.nprocs, rendezvous.sockdir
    if park is not None:
        _serve_assignments(*park, (rank, nprocs, sockdir))
        return
    if not isinstance(fn, ExecRank):
        child_session(rank, nprocs, sockdir, lambda comm, meta: fn(comm))
        return
    argv = [sys.executable, "-m", "repro.tools.mphchild"]
    argv += ["--rank", str(rank), "--nprocs", str(nprocs), "--sockdir", sockdir]
    # The child must import repro regardless of how the parent got it
    # onto sys.path (installed, PYTHONPATH=src, pytest rootdir magic).
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = pkg_root + (os.pathsep + inherited if inherited else "")
    # A fresh interpreter inherits no pool size, so it is told the core
    # budget the way a user would tell it — and a user who did is obeyed.
    budget = str(thread_budget(nprocs))
    for var in THREAD_VARS:
        os.environ.setdefault(var, budget)
    os.execv(sys.executable, argv)


def _serve_assignments(conn: socket.socket, resolve: Callable[[Any], Any], assignment) -> None:
    """The life of a :class:`RankPool` process: play the rank it was
    forked for, ack, park on *conn* for the next *assignment* — ``(rank,
    nprocs, sockdir)``, what ``mphchild`` gets on its command line —
    until the launcher retires it or dies (EOF).

    Every job is the same :func:`child_session` a forked or exec'd rank
    runs; the program is rebuilt from the welcome frame's meta by
    *resolve*, so a rank served here never depends on what this process
    was first forked to run.  Between jobs the process holds nothing of
    the launcher's and nothing of a finished job: every inherited
    descriptor but stdio and *conn* is closed before the first job, and
    the ack follows the session, which closed the transport — listener,
    connections, segment.
    """
    keep = {0, 1, 2, conn.fileno()}
    # ... and what the sys.std* objects write through, where that is not
    # fd 0-2 (a capture file; multiprocessing's /dev/null stdin): closed
    # under them, a later write would land in a recycled descriptor.
    for stream in (sys.stdin, sys.stdout, sys.stderr):
        try:
            keep.add(stream.fileno())
        except (AttributeError, OSError, ValueError):
            pass
    try:
        inherited = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # no procfs: the descriptor table's whole range
        inherited = range(os.sysconf("SC_OPEN_MAX"))
    for fd in inherited:
        if fd not in keep:
            try:
                os.close(fd)
            except OSError:
                pass
    signal.set_wakeup_fd(-1)  # the launcher's event loop's, closed just now
    # The launcher's heap came along with the fork: keep it out of this
    # process's collections for good — nothing in it is ours to finalize
    # (an inherited socket object would close a descriptor number that
    # by then names something else), and not walking it keeps the
    # per-job collection below cheap.
    gc.freeze()
    while assignment:
        rank, nprocs, sockdir = assignment
        # The budget came with the fork; a comparison, unless this world
        # divides the cores differently from the last one served here.
        apply_thread_budget(nprocs)
        child_session(rank, nprocs, sockdir, lambda comm, meta: resolve(meta)(comm))
        try:
            send_frame(conn, ("parked",))
            gc.collect()  # the world's cycles, while nobody waits for us
            assignment = recv_frame(conn, timeout=None)
        except (TransportError, OSError):
            return  # retired with the ack unread: the job was not clean


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Child:
    """One rank's process: what the rendezvous polls (``proc``),
    terminates and reaps, and the names failure reports give it.
    Constructing it forks the child (see :func:`_child_main`); one
    forked for a :class:`RankPool` outlives the job and is given its
    later ranks by :meth:`assign`."""

    def __init__(
        self, rendezvous: "_Rendezvous", rank: int, label: str, fn, log_path,
        pool: Optional["RankPool"] = None,
    ):
        self.rank, self.label = rank, label
        #: The launcher's end of the park connection: assignments down,
        #: acks up; ``None`` for a child that exits with its job.
        self.conn: Optional[socket.socket] = None
        park = None
        if pool is not None:
            self.conn, theirs = pool.connection()
            park = (theirs, pool.resolve)
        # The fork context is asked for here, not at import: a platform
        # without one still imports the package and runs thread worlds.
        self.proc = multiprocessing.get_context("fork").Process(
            target=_child_main, args=(rendezvous, rank, fn, log_path, park), name=f"mpi-proc-{rank}"
        )
        try:
            self.proc.start()
        finally:
            if park is not None:
                theirs.close()

    def assign(self, rendezvous: "_Rendezvous", rank: int, label: str) -> None:
        """Start a parked process on its next rank: a message, not a fork."""
        self.rank, self.label = rank, label
        send_frame(self.conn, (rank, rendezvous.nprocs, rendezvous.sockdir))

    def parked(self, deadline: float) -> bool:
        """Whether the process acked, by *deadline*, that nothing of the
        job is left in it (``False`` for one that never parks)."""
        if self.conn is None:
            return False
        try:
            ack = recv_frame(self.conn, timeout=max(deadline - time.monotonic(), 0.001))
        except (TransportError, OSError):
            return False
        return ack == ("parked",)

    def reap(self, timeout: float) -> None:
        """Give the child *timeout* to exit, then kill it.  Closing the
        park connection is what tells a parked process to go.  The
        sentinel wakes us the moment a forked child exits; an exec'd or
        parked one closed it long ago (``Process.join(timeout)`` would go
        on to block in ``waitpid`` for as long as the program cares to
        run), so the rest of the wait polls, backing off like
        ``subprocess`` does."""
        if self.conn is not None:
            self.conn.close()
        deadline, nap = time.monotonic() + timeout, 0.0
        multiprocessing.connection.wait([self.proc.sentinel], timeout)
        while self.proc.exitcode is None and time.monotonic() < deadline:
            time.sleep(nap)  # at first just a yield: a forked child is exiting as we look
            nap = min(2 * nap + 0.0001, 0.05)
        if self.proc.exitcode is None:  # stuck: SIGTERM ignored, or a thread outlives the rank
            self.proc.kill()
        self.proc.join()


class RankPool:
    """Parked rank processes: the pipeline's third spawner, beside fork
    and exec — the MPD shape (Butler, Gropp & Lusk), where starting a job
    is a message to processes that already exist.

    A launch that is handed the pool (:class:`ProcLaunch`) serves each
    :class:`~repro.mpi.executor.ExecRank` from a process parked here,
    forking only the shortfall; the processes of a job whose every rank
    reported ok ack and park again, the rest are retired.  So the pool
    never forks ahead of demand, and holds at most as many processes as
    its launches ever had out at once.

    *programs* maps names to programs and ``entry(program, arg)`` builds
    a rank's ``entry(comm)`` from one: a parked process — forked while
    the pool existed, so it inherited both — rebuilds its rank from the
    ``(name, arg)`` meta of its welcome frame, and the launcher ships
    names, never code (as to ``mphchild``).  :meth:`name` is how a
    launcher asks whether a program can travel that way.
    """

    def __init__(self, programs: Mapping[Any, Callable], entry: Callable[[Callable, Any], Any]):
        self._programs = dict(programs)
        self._entry = entry
        # By identity: a name is only given for the very object a parked
        # process will find under it.
        self._names = {id(program): name for name, program in self._programs.items()}
        self._idle: list[_Child] = []
        self._lock = threading.Lock()
        #: Rank processes forked for / served from the pool so far.
        self.forked = self.reused = 0
        # The launcher's end of every park connection, for as long as
        # its child lives: any process forked meanwhile must let go of
        # its copies, or closing ours is no longer EOF at the child.
        self._conns: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()
        multiprocessing.util.register_after_fork(self, RankPool._close_connections)
        # A pool dropped without close() strands nothing; at interpreter
        # exit this runs before multiprocessing joins its children.
        multiprocessing.util.Finalize(
            self, RankPool._retire, args=(self._idle, self._lock), exitpriority=10
        )

    def name(self, program: Callable) -> Any:
        """The name a parked process resolves to *program*, or ``None``
        when it cannot hold it (a closure made since: that rank forks)."""
        return self._names.get(id(program))

    def resolve(self, meta: Any) -> Callable:
        """A rank's ``entry(comm)`` from its ``(name, arg)`` meta."""
        name, arg = meta
        return self._entry(self._programs[name], arg)

    def connection(self) -> tuple[socket.socket, socket.socket]:
        """A park connection for a process about to be forked: ``(the
        launcher's end, the child's)``."""
        ours, theirs = socket.socketpair()
        with self._lock:
            self.forked += 1
            self._conns.add(ours)
        return ours, theirs

    def _close_connections(self) -> None:
        for conn in list(self._conns):
            conn.close()

    def take(self) -> Optional[_Child]:
        """A parked process to hand a rank to, or ``None`` (fork one)."""
        with self._lock:
            while self._idle:
                child = self._idle.pop()
                if child.proc.exitcode is None:
                    self.reused += 1
                    return child
                child.reap(0.0)  # died while parked
            return None

    def park(self, child: _Child) -> None:
        """Take back the process of a clean job that has acked."""
        with self._lock:
            self._idle.append(child)

    def close(self) -> None:
        """Retire every process parked now.  The pool stays usable: the
        next launch forks again, and a job out while this runs parks its
        processes as ever."""
        self._retire(self._idle, self._lock)

    @staticmethod
    def _retire(idle: list, lock) -> None:
        with lock:
            children, idle[:] = idle[:], []
        for child in children:
            child.conn.close()  # all told before any is waited for
        for child in children:
            child.reap(_KILL_GRACE)


class _Rendezvous:
    """The launcher's half of a process world — the *process manager*:
    serve the address exchange, collect results, detect silent deaths,
    shut everyone down, and sweep what the job left behind.  Each stage
    a :class:`ProcLaunch` drives is a method."""

    def __init__(self, nprocs: int, config: WorldConfig, namespace: Optional[str] = None):
        self.nprocs = nprocs
        self.config = config
        self.sockdir = tempfile.mkdtemp(prefix=rendezvous_prefix(namespace))
        self.listener = make_listener(_rendezvous_path(self.sockdir))

    def bootstrap(self, conns, children, results, metas, deadline) -> None:
        """One hello per child on its own connection, collected into
        *conns* for the result/run/shutdown protocol, then the
        once-pickled welcome back on each (carrying its rank's meta)."""

        def tick() -> None:
            self._check_deadline(deadline, "rank bootstrap", children, conns)
            dead = self._dead_without_result(children, results, conns)
            if dead:
                # A child died before its hello: nobody can form a world.
                self._fail_bootstrap(dead, children, results)

        serve_rendezvous(self.listener, self.nprocs, self.config, metas, conns, on_tick=tick)

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
        with selectors.DefaultSelector() as unread:
            for rank, conn in conns.items():
                unread.register(conn, selectors.EVENT_READ, rank)
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
                self._check_deadline(deadline, "job", children, results)
                dead = self._dead_without_result(children, results, None)
                if dead and death_deadline is None:
                    death_deadline = now + _DEATH_GRACE
                for key, _ in unread.select(0.2):
                    unread.unregister(key.fileobj)
                    try:
                        frame = recv_frame(key.fileobj, timeout=max(deadline - now, 0.001))
                    except (TransportError, OSError):
                        frame = None
                    if isinstance(frame, tuple) and frame and frame[0] == "result":
                        _, _, ok, payload, traffic, cpu_seconds, wall_seconds = frame
                        results[key.data] = ProcResult(
                            rank=key.data,
                            value=payload if ok else None,
                            exception=None if ok else payload,
                            traffic=traffic,
                            cpu_seconds=cpu_seconds,
                            wall_seconds=wall_seconds,
                        )
                    # EOF (None) or a transport error: the liveness poll
                    # above will classify the death on a later iteration.

    def _dead_without_result(self, children, results, conns) -> list:
        return [
            h
            for rank, h in enumerate(children)
            if rank not in results and not (conns and rank in conns) and h.proc.exitcode is not None
        ]

    def shutdown(self, conns, children, pool: Optional[RankPool] = None) -> None:
        """Release the lingering children.  One with a park connection
        acks once its transport is closed and goes back to *pool* — no
        pool when the job was not clean: its processes are not trusted
        with another — and whoever does not park is reaped.  Returns
        with nothing of the job left in any process, so the sweep that
        follows races nobody."""
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
        deadline = time.monotonic() + _KILL_GRACE
        for child in children:
            if pool is not None and child.parked(deadline):
                pool.park(child)
            else:
                child.reap(_KILL_GRACE)

    def sweep(self) -> None:
        """Remove everything the job owned outside its processes."""
        try:
            self.listener.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self.config.transport == "shm":  # no other job creates a segment
            # Sweep any shm segments of this job that a crashed child
            # never unlinked itself (segment names derive from the
            # sockdir name, so the prefix is job-unique).  Runs on every
            # exit path of a launch — including ChildExitError — so
            # /dev/shm can't leak.
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
    def _check_deadline(deadline: float, what: str, children, heard) -> None:
        """Past *deadline*, raise naming every child whose rank is not in
        *heard* (no hello, or no result): who kept the job waiting, as
        the thread world names its live threads."""
        if time.monotonic() >= deadline:
            missing = ", ".join(
                f"{h.label} (world rank {rank})"
                for rank, h in enumerate(children)
                if rank not in heard
            )
            raise TimeoutError_(
                f"{what} exceeded its wall-clock budget; still waiting on {missing}"
            )


class _BootstrapDead(Exception):
    """Internal: bootstrap aborted because a child died before its hello."""


class ProcLaunch:
    """A process world kept open — the launcher's side of every process
    job, each rank its own **OS process** with its own interpreter, world
    replica and transport (see :func:`_child_main` for how a rank is
    forked or exec'd).  The first :meth:`run` spawns the ranks,
    bootstraps them and collects what the welcome frame started; each
    later run is a ``("run", meta)`` frame per rank down the connection
    it said hello on, collected the same way, and is sent only once
    every result frame of the last is in — the ordering a barrier
    between runs would give, with no message.  :func:`run_procs` is one
    run and a :meth:`close`; a resident service world
    (:class:`~repro.service.runtime.WorkerWorld`) is one run per job.

    With *pool*, an :class:`~repro.mpi.executor.ExecRank` (its meta what
    :meth:`RankPool.resolve` takes) is neither forked nor exec'd: it goes
    to a process parked in the pool, one being forked into it only when
    none is idle, and if the launch closes clean the processes park
    again instead of exiting.  The world, socket directory and segments
    are as private, and as swept, as without.  A failed rank, a death, a
    timeout or an interrupt *poisons* the launch: it runs nothing more,
    and its processes are retired.

    With *log_dir*, each child's stdout+stderr are redirected at the OS
    level to ``<log_dir>/<label>.log`` — real per-process log files, not
    the thread backend's ``sys.stdout`` proxy (and not a pool's: a parked
    process keeps the stdio it was forked with, so ``launch`` refuses
    the two together).  *namespace* scopes the rendezvous directory and
    shm segments under :func:`rendezvous_prefix` (the MPH service's
    per-job isolation seam).
    """

    def __init__(
        self,
        ranks: Sequence[Any],
        config: WorldConfig,
        *,
        labels: Optional[Sequence[str]] = None,
        namespace: Optional[str] = None,
        log_dir: Optional[str] = None,
        pool: Optional[RankPool] = None,
    ):
        self._ranks = list(ranks)
        self._labels = list(labels) if labels is not None else [f"rank{r}" for r in range(len(ranks))]
        self._log_dir, self._pool = log_dir, pool
        self._rendezvous = _Rendezvous(len(ranks), config, namespace)
        self._children: list[_Child] = []
        self._conns: dict[int, socket.socket] = {}
        self.poisoned = self._closed = False

    def run(self, timeout: float, metas: Optional[Sequence[Any]] = None) -> list[ProcResult]:
        """Run every rank once more and collect the per-rank outcomes
        within *timeout* seconds; ``metas[rank]`` is what rank's program
        is rebuilt from (its :class:`~repro.mpi.executor.ExecRank`'s meta
        when not given).  A child that dies without reporting becomes a
        :class:`~repro.errors.ChildExitError` result for its rank.

        Raises :class:`~repro.errors.TimeoutError_` past *timeout*, and
        :class:`~repro.errors.LaunchError` when no rank received the run:
        the launch is poisoned or closed, a rank has exited since the
        last run, or the first frame could not be sent."""
        if self.poisoned or self._closed:
            raise LaunchError("the launch is " + ("closed" if self._closed else "poisoned"))
        if metas is None:
            metas = [fn.meta if isinstance(fn, ExecRank) else None for fn in self._ranks]
        results: dict[int, ProcResult] = {}
        try:
            if self._children:
                deadline = time.monotonic() + timeout
                self._send_run(metas)
            else:
                self._spawn()
                deadline = time.monotonic() + timeout
                self._rendezvous.bootstrap(self._conns, self._children, results, metas, deadline)
            self._rendezvous.collect(self._conns, self._children, results, deadline)
        except _BootstrapDead:
            pass  # every rank already has its result, the siblings are terminated
        except BaseException:
            # However the run was cut short (a failed spawn, the deadline,
            # a malformed frame, an interrupt), children still mid-bootstrap
            # or mid-run would never see the shutdown: terminate them so
            # the joins return at once instead of timing out one by one.
            self.poisoned = True
            for child in self._children:
                child.proc.terminate()
            raise
        self.poisoned = any(result.exception is not None for result in results.values())
        return [results[r] for r in sorted(results)]

    def _spawn(self) -> None:
        # The launcher's numeric thread pools at this world's core budget
        # from before the first fork to after the last: what a forked
        # rank inherits is what it runs with.
        if self._log_dir is not None:
            os.makedirs(self._log_dir, exist_ok=True)
        with forking_under_budget(len(self._ranks)):
            for rank, (fn, label) in enumerate(zip(self._ranks, self._labels)):
                parks = self._pool if isinstance(fn, ExecRank) else None
                child = parks.take() if parks is not None else None
                if child is not None:
                    self._children.append(child)
                    child.assign(self._rendezvous, rank, label)
                    continue
                log_path = None if self._log_dir is None else os.path.join(self._log_dir, f"{label}.log")
                self._children.append(_Child(self._rendezvous, rank, label, fn, log_path, parks))

    def _send_run(self, metas: Sequence[Any]) -> None:
        if any(child.proc.exitcode is not None for child in self._children):
            raise LaunchError("a rank exited since the last run: this one was not sent")
        for n, (rank, conn) in enumerate(self._conns.items()):
            try:
                send_frame(conn, ("run", metas[rank]))
            except OSError as exc:
                if n == 0:  # nobody has it; a rank lost later is the run's to report
                    raise LaunchError(f"the run could not be sent: {exc}") from exc

    def close(self) -> None:
        """Release the ranks — a clean launch's pooled processes ack and
        park again, every other one exits or is killed past
        ``_KILL_GRACE`` — then sweep the socket directory and segments.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._rendezvous.shutdown(
                self._conns, self._children, None if self.poisoned else self._pool
            )
        finally:
            self._rendezvous.sweep()


def run_procs(
    ranks: Sequence[Any],
    config: WorldConfig,
    timeout: float = 120.0,
    log_dir: Optional[str] = None,
    labels: Optional[Sequence[str]] = None,
    namespace: Optional[str] = None,
    pool: Optional[RankPool] = None,
) -> list[ProcResult]:
    """The process leg of :func:`repro.mpi.executor.launch`, which
    validates before and classifies the root cause after: one run of a
    :class:`ProcLaunch`, then its close.  Same contract as the thread
    leg — a per-rank :class:`~repro.mpi.executor.ProcResult` list, and
    :class:`~repro.errors.TimeoutError_` past *timeout*."""
    launch = ProcLaunch(ranks, config, labels=labels, namespace=namespace, log_dir=log_dir, pool=pool)
    try:
        return launch.run(timeout)
    finally:
        launch.close()
