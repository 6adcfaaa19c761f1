"""Multi-channel standard-output redirection (paper Section 5.4).

With five components running, "if nothing special is done, all these
messages sent to stdout will go to the session launching terminal.  The
mixed output would be extremely difficult to decipher."  MPH's answer:
redirect the stdout of local processor 0 of each component to a
``<component>.log`` file, while "all other occasional writes from all other
processors are stored in one combined standard output file."

Since this reproduction runs MPI processes as threads of one interpreter,
per-process stdout is simulated with a *thread-aware* stdout proxy — one
per process, shared by every job running in it: while any
:class:`MultiChannelOutput` is installed, each thread's ``print`` output is
routed to the channel that thread registered (or passed through to the real
stdout when it registered none).  Log file names come from environment
variables — ``MPH_LOG_<NAME>`` per component and ``MPH_COMBINED_LOG`` for
the combined stream — "defined by run time environment variables either in
command line or in batch run script" (paper §5.4).
"""

from __future__ import annotations

import io
import os
import sys
import threading
from pathlib import Path
from typing import Optional, TextIO, Union


def log_path_for(
    component_name: str,
    *,
    is_channel_owner: bool,
    env_vars: Optional[dict[str, str]] = None,
    workdir: Optional[Union[str, Path]] = None,
) -> Path:
    """The Section 5.4 log-path policy, shared by both output managers.

    The component's local processor 0 owns ``<component>.log``
    (overridable via the ``MPH_LOG_<NAME>`` environment variable, name
    upper-cased with ``-``/``.`` mapped to ``_``); every other processor
    shares the combined log (``MPH_COMBINED_LOG`` override, default
    ``mph_combined.log``).  Default-named logs land in *workdir* (or the
    current directory).
    """
    env_vars = env_vars or {}
    base = Path(workdir) if workdir is not None else Path.cwd()
    if is_channel_owner:
        var = "MPH_LOG_" + component_name.upper().replace("-", "_").replace(".", "_")
        return Path(env_vars.get(var, base / f"{component_name}.log"))
    return Path(env_vars.get("MPH_COMBINED_LOG", base / "mph_combined.log"))


class _ThreadAwareProxy(io.TextIOBase):
    """The ``sys.stdout`` stand-in, dispatching per thread: one per
    process (:data:`_PROXY`), never freed.

    It owns ``sys.stdout`` while any :class:`MultiChannelOutput` is
    installed, however the installs of concurrent jobs interleave, and
    puts back what it found when the last one leaves.  A ``print`` in
    flight holds ``sys.stdout`` only borrowed (CPython 3.11), so a proxy
    that could be retired while another job's threads print would be
    read after it was freed."""

    def __init__(self) -> None:
        self._fallback: TextIO = sys.stdout
        # thread ident -> (owning manager, channel)
        self._targets: dict[int, tuple[object, TextIO]] = {}
        self._lock = threading.Lock()
        self._installs = 0

    def _target(self) -> TextIO:
        entry = self._targets.get(threading.get_ident())
        return self._fallback if entry is None else entry[1]

    def install(self) -> None:
        with self._lock:
            self._installs += 1
            if self._installs == 1:
                self._fallback = sys.stdout
                sys.stdout = self  # type: ignore[assignment]

    def uninstall(self, owner: object) -> None:
        """One installer leaves, dropping every thread's registration
        under *owner* (whose channels are about to close)."""
        with self._lock:
            self._targets = {
                ident: entry for ident, entry in self._targets.items() if entry[0] is not owner
            }
            self._installs -= 1
            if self._installs == 0:
                sys.stdout = self._fallback  # type: ignore[assignment]

    def register(self, owner: object, target: TextIO) -> None:
        with self._lock:
            self._targets[threading.get_ident()] = (owner, target)

    def _after_fork_in_child(self) -> None:
        # The forking thread is the child's only one: a lock another
        # thread held would never be released, and its registration
        # would route a new thread that reuses its ident.
        self._lock = threading.Lock()
        ident = threading.get_ident()
        self._targets = {k: v for k, v in self._targets.items() if k == ident}

    def unregister(self, owner: object) -> None:
        with self._lock:
            entry = self._targets.get(threading.get_ident())
            if entry is not None and entry[0] is owner:
                del self._targets[threading.get_ident()]

    # io.TextIOBase interface -------------------------------------------------

    def write(self, s: str) -> int:  # noqa: D102 - interface method
        return self._target().write(s)

    def flush(self) -> None:  # noqa: D102 - interface method
        self._target().flush()

    @property
    def encoding(self) -> str:  # noqa: D102 - interface method
        return getattr(self._target(), "encoding", "utf-8")

    def writable(self) -> bool:  # noqa: D102 - interface method
        return True

    def close(self) -> None:
        """Nothing to close: the streams are their owners' (and this is
        called once more at interpreter exit, when they may be closed)."""


_PROXY = _ThreadAwareProxy()
os.register_at_fork(after_in_child=_PROXY._after_fork_in_child)


class _LockedWriter(io.TextIOBase):
    """A shared append-mode writer serialising lines from many threads —
    the simulated "log mode" of parallel file systems (paper §5.4), where
    "writes from different processors will be buffered and appended"."""

    def __init__(self, stream: TextIO):
        self._stream = stream
        self._lock = threading.Lock()

    def write(self, s: str) -> int:  # noqa: D102 - interface method
        with self._lock:
            return self._stream.write(s)

    def flush(self) -> None:  # noqa: D102 - interface method
        with self._lock:
            self._stream.flush()

    def writable(self) -> bool:  # noqa: D102 - interface method
        return True

    def close_stream(self) -> None:
        with self._lock:
            self._stream.close()


class MultiChannelOutput:
    """The job-wide output manager: one log channel per component.

    Use as a context manager around the job (done automatically by
    :class:`repro.launcher.job.MpmdJob`); components then call
    :meth:`redirect` — via ``MPH.redirect_output()`` — from their own
    threads.

    The manager is idempotent to install and safe to use uninstalled (all
    operations become no-ops), so library code never has to care whether a
    job harness set it up.
    """

    def __init__(self) -> None:
        self._channels: dict[str, _LockedWriter] = {}
        self._lock = threading.Lock()
        self._installed = 0

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "MultiChannelOutput":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        """Route ``sys.stdout`` through the process's thread-aware proxy
        (re-entrant)."""
        with self._lock:
            self._installed += 1
            if self._installed == 1:
                _PROXY.install()

    def uninstall(self) -> None:
        """Unregister this manager's threads and close its channels (when
        its last installer leaves); ``sys.stdout`` is put back when no
        manager of the process is installed."""
        with self._lock:
            if self._installed == 0:
                return
            self._installed -= 1
            if self._installed > 0:
                return
            _PROXY.uninstall(self)
            channels, self._channels = self._channels, {}
        for writer in channels.values():
            writer.close_stream()

    @property
    def installed(self) -> bool:
        """Whether this manager is installed (its threads' ``print`` can
        be redirected)."""
        return self._installed > 0

    # -- channels ---------------------------------------------------------------

    def _channel(self, key: str, path: Path) -> _LockedWriter:
        with self._lock:
            writer = self._channels.get(key)
            if writer is None:
                path.parent.mkdir(parents=True, exist_ok=True)
                writer = _LockedWriter(open(path, "a", buffering=1))
                self._channels[key] = writer
            return writer

    def redirect(
        self,
        component_name: str,
        *,
        is_channel_owner: bool,
        env_vars: Optional[dict[str, str]] = None,
        workdir: Optional[Union[str, Path]] = None,
    ) -> Optional[Path]:
        """Route the calling thread's stdout per the Section 5.4 policy.

        Parameters
        ----------
        component_name :
            The component this process belongs to.
        is_channel_owner :
            True on the component's local processor 0, which owns the
            per-component log; other processors share the combined file.
        env_vars :
            Job environment variables; ``MPH_LOG_<NAME>`` (name upper-cased,
            ``-``/``.`` mapped to ``_``) overrides the per-component log
            path and ``MPH_COMBINED_LOG`` the combined path.
        workdir :
            Directory for default-named logs (default: current directory).

        Returns
        -------
        Path or None
            The log path this thread now writes to, or ``None`` when the
            manager is not installed (no redirection happens).
        """
        if not self.installed:
            return None
        path = log_path_for(
            component_name,
            is_channel_owner=is_channel_owner,
            env_vars=env_vars,
            workdir=workdir,
        )
        key = f"component:{component_name}" if is_channel_owner else "combined"
        _PROXY.register(self, self._channel(key, path))
        return path

    def restore(self) -> None:
        """Undo :meth:`redirect` for the calling thread."""
        if self.installed:
            _PROXY.unregister(self)


class ProcessOutput:
    """The process-backend output manager: real OS-level redirection.

    Where :class:`MultiChannelOutput` simulates per-process stdout with a
    thread-aware proxy (threads share one interpreter, so there is only
    one real stdout to go around), a process-backend rank *owns* its
    stdout — so §5.4 redirection is done the way the paper's platforms do
    it: ``dup2`` the log file over file descriptor 1.  The path policy
    (:func:`log_path_for`) is identical, so ``MPH_redirect_output`` is
    backend-transparent.

    Duck-types the :class:`MultiChannelOutput` surface MPH touches
    (``install``/``uninstall``/``redirect``/``restore``/``installed``),
    so :class:`~repro.launcher.job.JobEnv.output` can carry either.
    """

    def __init__(self) -> None:
        self._saved_fd: Optional[int] = None
        self._log_fd: Optional[int] = None
        self._saved_stdout: Optional[TextIO] = None

    def __enter__(self) -> "ProcessOutput":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        """No-op (a process's stdout needs no proxy)."""

    def uninstall(self) -> None:
        """Alias for :meth:`restore` (manager-interface parity)."""
        self.restore()

    @property
    def installed(self) -> bool:
        """Always true: fd 1 is always redirectable."""
        return True

    def redirect(
        self,
        component_name: str,
        *,
        is_channel_owner: bool,
        env_vars: Optional[dict[str, str]] = None,
        workdir: Optional[Union[str, Path]] = None,
    ) -> Path:
        """Point this process's stdout (fd 1) at the §5.4 log file.

        Opened in append mode so the combined log survives many ranks
        writing concurrently (the "log mode" of §5.4).
        """
        path = log_path_for(
            component_name,
            is_channel_owner=is_channel_owner,
            env_vars=env_vars,
            workdir=workdir,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        sys.stdout.flush()
        fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        if self._saved_fd is None:
            self._saved_fd = os.dup(1)
        os.dup2(fd, 1)
        if self._log_fd is not None:
            os.close(self._log_fd)
        self._log_fd = fd
        # ``print`` must follow the redirection too.  A forked child
        # inherits whatever object the parent had bound to ``sys.stdout``
        # — possibly a capture proxy (pytest, an output manager) that
        # does not write through fd 1 — so rebind it onto fd 1 directly.
        if self._saved_stdout is None:
            self._saved_stdout = sys.stdout
            sys.stdout = io.TextIOWrapper(
                io.FileIO(1, "w", closefd=False), line_buffering=True
            )
        return path

    def restore(self) -> None:
        """Undo :meth:`redirect`: put the original stdout back on fd 1."""
        sys.stdout.flush()
        if self._saved_stdout is not None:
            sys.stdout = self._saved_stdout
            self._saved_stdout = None
        if self._saved_fd is not None:
            os.dup2(self._saved_fd, 1)
            os.close(self._saved_fd)
            self._saved_fd = None
        if self._log_fd is not None:
            os.close(self._log_fd)
            self._log_fd = None
