"""The MPH handle: unified interface to all five execution modes.

This module is the user-facing surface of the library.  The two entry
points mirror the paper's:

* :func:`components_setup` — ``MPH_components_setup(name1=..., ...)`` for
  SCSE, SCME, MCSE, and MCME executables (paper §4.1–§4.3);
* :func:`multi_instance` — ``MPH_multi_instance(prefix)`` for ensemble
  (MIME) executables (paper §4.4).

Both run the Section 6 handshake — :meth:`Session.init
<repro.core.session.Session.init>` — and return the session's
:class:`MPH` handle, a view of the session at its current epoch.  The
handle's methods cover the rest of the paper's API: the inquiry
functions (§5.3), ``comm_join`` (§5.1), inter-component send/recv
(§5.2), per-instance argument access (§4.4), and standard-output
redirection (§5.4).

The Fortran original returns a communicator from the setup call; here the
setup returns the richer handle and the communicator is ``mph.exe_world``
(the executable's communicator — what the paper's examples bind to
``mpi_exec_world``) or ``mph.component_comm(name)``.
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro.core.arguments import ArgumentFields
from repro.core.profiling import CommProfile
from repro.core.join import comm_join as _comm_join
from repro.core.layout import ComponentInfo, Layout
from repro.core.redirect import MultiChannelOutput
from repro.core.registry import Registry
from repro.core.session import Session, components_session, instance_session
from repro.errors import HandshakeError, MPHError, ProcessFailedError, SessionError
from repro.mpi.comm import Comm
from repro.mpi.constants import ANY_TAG, UNDEFINED
from repro.mpi.request import Request
from repro.mpi.status import Status


class MPH:
    """A process's view of the multi-component environment: one
    :class:`~repro.core.session.Session` at one epoch.

    Never constructed directly — use :func:`components_setup`,
    :func:`multi_instance` or :meth:`Session.mph
    <repro.core.session.Session.mph>`.  Construction is collective over
    the session's world: it derives the world, executable, and
    covering-component communicators from their psets.  After a failure
    shrink get a fresh view with ``session.mph()`` (or
    :meth:`shrink_world`, which does both).
    """

    def __init__(self, session: Session, env=None):
        if not session.is_active:
            control = session.control_comm
            raise SessionError(
                f"process {control.group.world_id(control.rank)} is not active at "
                f"epoch {session.epoch} (its layout does not place it); "
                "it has no component view to materialize"
            )
        self._session = session
        self._env = env
        self._output: Optional[MultiChannelOutput] = getattr(env, "output", None)
        #: Per-process coupling-communication counters (see
        #: :mod:`repro.core.profiling`).
        self.profile = CommProfile()

        self._layout = lay = session.layout
        self._dead_components = session.dead_components
        self._world = session.comm("mph://world")
        #: ``(component, local rank) -> world-communicator rank``: the
        #: §5.2 address translation, made once per address for this
        #: handle (a shrink builds a new handle, so a new table).
        self._ranks: dict[tuple[str, int], int] = {}
        me = self._world.group.world_id(self._world.rank)
        self._exe_id = lay.executable_of(me).exe_id
        mine = [c.name for c in lay.components if me in c.world_ranks]
        if session.strategy == "world_split":
            # Single-component executables: the component communicator is
            # the executable communicator (§6 case 1 made them one split).
            self._exe_comm = session.comm(f"mph://component/{mine[0]}")
            self._comp_comms = {mine[0]: self._exe_comm}
        else:
            self._exe_comm = session.comm(f"mph://exe/{self._exe_id}")
            self._comp_comms = {n: session.comm(f"mph://component/{n}") for n in mine}

    # -- communicators ---------------------------------------------------------

    @property
    def global_world(self) -> Comm:
        """The application-wide communicator (``MPH_Global_World``)."""
        return self._world

    @property
    def exe_world(self) -> Comm:
        """This executable's communicator — the return value of
        ``MPH_components_setup`` in the paper's examples."""
        return self._exe_comm

    @property
    def service_comm(self) -> Comm:
        """MPH's private communicator for internal protocols."""
        return self._session.control_comm

    def component_comm(self, name: Optional[str] = None) -> Comm:
        """The communicator of component *name* (must cover this process).

        With no name, the process must run exactly one component — the
        common case everywhere except overlapping multi-component
        executables.
        """
        name = self._default_name(name)
        comm = self._comp_comms.get(name)
        if comm is None:
            raise HandshakeError(
                f"this process (world rank {self.global_proc_id()}) is not in component "
                f"{name!r}; it runs {list(self._comp_comms) or 'no components'}"
            )
        return comm

    def proc_in_component(self, name: str) -> Optional[Comm]:
        """The paper's ``PROC_in_component(name, comm)``: the component's
        communicator when this process belongs to it, else ``None``.

        Typical master-program dispatch (paper §4.2)::

            comm = mph.proc_in_component("ocean")
            if comm is not None:
                ocean_xyz(comm)
        """
        self.layout.component(name)  # unknown names are an error, not False
        return self._comp_comms.get(name)

    def in_component(self, name: str) -> bool:
        """Boolean form of :meth:`proc_in_component`."""
        return self.proc_in_component(name) is not None

    def comm_join(self, name_first: str, name_second: str) -> Optional[Comm]:
        """Joint communicator over two components, first component's
        processors ranked first (paper §5.1)."""
        return _comm_join(self, name_first, name_second)

    # -- fault recovery --------------------------------------------------------

    def shrink_world(self) -> "MPH":
        """Rebuild the multi-component environment over the survivors of a
        process failure; returns a fresh :class:`MPH` handle.

        Collective over every live process of the world (typically called
        after :meth:`~repro.mpi.comm.Comm.revoke` has knocked all
        survivors out of their communication pattern).  Survivors keep
        their original global ids; components that lost every process are
        listed in the new handle's :attr:`dead_components` and vanish
        from its layout.  The old handle remains usable only for inquiry.
        """
        self._session.shrink()
        new_mph = self._session.mph(self._env)
        new_mph.profile = self.profile
        return new_mph

    @property
    def dead_components(self) -> tuple[str, ...]:
        """Components with zero surviving processes (empty before any
        :meth:`shrink_world`)."""
        return self._dead_components

    # -- identity / inquiry (paper §5.3) ------------------------------------------

    @property
    def layout(self) -> Layout:
        """The global component/executable map."""
        return self._layout

    @property
    def registry(self) -> Registry:
        """The broadcast registration file."""
        return self._session.registry

    @property
    def strategy(self) -> str:
        """Which handshake split strategy ran (``"world_split"`` or
        ``"exe_then_comp"``)."""
        return self._session.strategy

    def _default_name(self, name: Optional[str]) -> str:
        if name is not None:
            return name
        mine = self.comp_names()
        if len(mine) == 1:
            return mine[0]
        if not mine:
            raise MPHError(
                f"world rank {self.global_proc_id()} runs no component; its executable's "
                "registration leaves it idle"
            )
        raise MPHError(
            f"this process runs several components {list(mine)}; pass the component name"
        )

    def comp_name(self) -> str:
        """This process's component name (``MPH_comp_name``).  For a
        multi-instance executable this is the *expanded* instance name
        (e.g. ``Ocean2``)."""
        return self._default_name(None)

    def comp_names(self) -> tuple[str, ...]:
        """All components covering this process (several when overlapping)."""
        return tuple(self._comp_comms)

    def local_proc_id(self, name: Optional[str] = None) -> int:
        """Component-local processor id (``MPH_local_proc_id``)."""
        return self.component_comm(name).rank

    def global_proc_id(self) -> int:
        """Global processor id in the world (``MPH_global_proc_id``).

        Always the *original* world id, so layout lookups stay valid even
        after :meth:`shrink_world` renumbers the communicator ranks (on
        the full world the two coincide).
        """
        world = self.global_world
        return world.group.world_id(world.rank)

    def total_components(self) -> int:
        """Number of components in the application (``MPH_total_components``)."""
        return self.layout.total_components

    def num_executables(self) -> int:
        """Number of executables in the application."""
        return self.layout.num_executables

    def exe_id(self) -> int:
        """This executable's index."""
        return self._exe_id

    def exe_low_proc_limit(self) -> int:
        """Lowest global rank of this executable (``MPH_exe_low_proc_limit``)."""
        return self.layout.executables[self._exe_id].low_proc_limit

    def exe_up_proc_limit(self) -> int:
        """Highest global rank of this executable (``MPH_exe_up_proc_limit``)."""
        return self.layout.executables[self._exe_id].up_proc_limit

    def component_info(self, name: Optional[str] = None) -> ComponentInfo:
        """Full layout record of a component."""
        return self.layout.component(self._default_name(name))

    def component_size(self, name: Optional[str] = None) -> int:
        """Processor count of a component."""
        return self.component_info(name).size

    def global_id(self, component: str, local_rank: int) -> int:
        """Global rank of ``(component, local_rank)`` — the §5.2 address
        translation (``MPH_global_id``)."""
        return self.layout.global_rank(component, local_rank)

    # -- inter-component messaging (paper §5.2) --------------------------------------
    #
    # "MPI communication between local processors and remote processors
    # (processors on other components) are invoked through component names
    # and the local ID.  For example, if a processor on atmosphere wants to
    # send to Process 3 on ocean ..." — the component name plus local rank
    # is translated to a global rank and the message travels over
    # ``MPH_Global_World``, the plain world communicator ("The reason we did
    # not use inter-communicator is because the entire application is
    # assumed to run on a tightly coupled HPC computer with a single
    # MPI_Comm_World").  When components overlap on processors, the paper
    # recommends message tags to disambiguate — user tags pass straight
    # through.
    #
    # Because the address is always a specific ``(component, local id)``
    # pair, name-addressed messaging is schedule-*independent*: an armed
    # :class:`~repro.mpi.sched.MatchSchedule` cannot change what a ``recv``
    # returns (swept in ``tests/core/test_messaging.py``).  The one wildcard
    # entry point is ``recv_any``, whose tie-break on overlapping components
    # is asserted under every swept seed.

    def _comm_rank(self, component: str, local_rank: int) -> int:
        """Translate ``(component, local_rank)`` to a rank of the global world
        communicator (made once per address, then read from a table).

        The layout's address translation yields the *original* world id; on
        the initial (full) world that id equals the communicator rank, so
        this is the identity.  After a post-failure shrink the world
        communicator spans only the survivors and the translation goes
        through its group — a world id that is no longer a member belongs to
        a dead process, reported as a clean :class:`ProcessFailedError`
        instead of an out-of-range rank.
        """
        rank = self._ranks.get((component, local_rank))
        if rank is not None:
            return rank
        wid = self.global_id(component, local_rank)
        rank = self._world.group.rank_of(wid)
        if rank == UNDEFINED:
            raise ProcessFailedError(
                f"processor {local_rank} of component {component!r} (world rank {wid}) "
                "is dead",
                failed_ranks=(wid,),
            )
        self._ranks[(component, local_rank)] = rank
        return rank

    def send(self, obj: Any, component: str, local_rank: int, tag: int = 0) -> None:
        """Send *obj* to processor *local_rank* of *component* over the
        global world communicator."""
        world = self._world
        rank = self._ranks.get((component, local_rank))
        if rank is None:
            rank = self._comm_rank(component, local_rank)
        world.send(obj, rank, tag)
        self.profile.record_send(component, world.last_payload_bytes)

    def isend(self, obj: Any, component: str, local_rank: int, tag: int = 0) -> Request:
        """Nonblocking :meth:`send`."""
        world = self._world
        req = world.isend(obj, self._comm_rank(component, local_rank), tag)
        self.profile.record_send(component, world.last_payload_bytes)
        return req

    def recv(
        self,
        component: str,
        local_rank: int,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Receive from processor *local_rank* of *component*."""
        if status is None:
            status = Status()
        source = self._ranks.get((component, local_rank))
        if source is None:
            source = self._comm_rank(component, local_rank)
        t0 = _time.perf_counter()
        obj = self._world.recv(source, tag, status)
        self.profile.record_recv(component, status.count, _time.perf_counter() - t0)
        return obj

    def irecv(self, component: str, local_rank: int, tag: int = ANY_TAG) -> Request:
        """Nonblocking :meth:`recv`."""
        return self._world.irecv(self._comm_rank(component, local_rank), tag)

    def recv_any(self, tag: int = ANY_TAG) -> tuple[Any, str, int]:
        """Receive from any process; identify the sender in component terms.

        Returns ``(obj, component, local_rank)``.  When the sending world
        rank hosts several overlapping components, the lowest-``comp_id``
        component is reported (use tags to disambiguate, as the paper
        advises).
        """
        status = Status()
        t0 = _time.perf_counter()
        obj = self._world.recv(tag=tag, status=status)
        # status.source is a communicator rank; the layout speaks world ids
        # (identical on the full world, translated after a shrink).
        wid = self._world.group.world_id(status.source)
        infos = self.layout.components_on(wid)
        if infos:
            info = min(infos, key=lambda c: c.comp_id)
            component, local_rank = info.name, info.local_rank_of(wid)
        else:
            component, local_rank = "?", wid
        self.profile.record_recv(component, status.count, _time.perf_counter() - t0)
        return obj, component, local_rank

    def Send(self, array: np.ndarray, component: str, local_rank: int, tag: int = 0) -> None:
        """Buffer-mode send of a numpy array to ``(component, local_rank)``."""
        world = self._world
        world.Send(array, self._comm_rank(component, local_rank), tag)
        self.profile.record_send(component, world.last_payload_bytes)

    def Recv(
        self,
        buf: np.ndarray,
        component: str,
        local_rank: int,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> np.ndarray:
        """Buffer-mode receive from ``(component, local_rank)`` into *buf*."""
        if status is None:
            status = Status()
        source = self._comm_rank(component, local_rank)
        t0 = _time.perf_counter()
        out = self._world.Recv(buf, source, tag, status)
        # Buffer-mode counts are elements; convert to bytes for the ledger.
        self.profile.record_recv(
            component, status.count * np.asarray(buf).itemsize, _time.perf_counter() - t0
        )
        return out

    # -- arguments (paper §4.4) ---------------------------------------------------------

    def arguments(self, name: Optional[str] = None) -> ArgumentFields:
        """The registration-line argument fields of a component."""
        info = self.component_info(name)
        return ArgumentFields(info.fields, component=info.name)

    def get_argument(
        self,
        key: Optional[str] = None,
        as_type: Optional[type] = None,
        *,
        field_num: Optional[int] = None,
        component: Optional[str] = None,
        **kw,
    ) -> Any:
        """``MPH_get_argument``: fetch a registration-line argument.

        >>> mph.get_argument("alpha", int)      # field "alpha=3"  -> 3
        >>> mph.get_argument("beta", float)     # field "beta=4.5" -> 4.5
        >>> mph.get_argument(field_num=1)       # first field, natural type
        """
        return self.arguments(component).get(key, as_type, field_num=field_num, **kw)

    # -- output redirection (paper §5.4) ---------------------------------------------------

    def redirect_output(
        self, component_name: Optional[str] = None, workdir: Optional[Union[str, Path]] = None
    ) -> Optional[Path]:
        """``MPH_redirect_output``: route this process's stdout.

        Local processor 0 of the component writes to the component's log
        (``MPH_LOG_<NAME>`` env override, default ``<component>.log``);
        every other processor shares the combined log.  Returns the log
        path, or ``None`` when no output manager is installed (e.g. the
        code runs outside an :class:`~repro.launcher.job.MpmdJob`).
        """
        name = self._default_name(component_name)
        if self._output is None:
            return None
        env_vars = dict(getattr(self._env, "vars", {}) or {})
        if workdir is None:
            workdir = getattr(self._env, "workdir", None)
        return self._output.redirect(
            name,
            is_channel_owner=self.local_proc_id(name) == 0,
            env_vars=env_vars,
            workdir=workdir,
        )

    def restore_output(self) -> None:
        """Undo :meth:`redirect_output` for this process."""
        if self._output is not None:
            self._output.restore()

    # ------------------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MPH world rank {self.global_proc_id()} exe {self._exe_id} "
            f"components {list(self._comp_comms)}>"
        )


def components_setup(
    world: Comm,
    *names: str,
    registry: Any = None,
    env: Any = None,
) -> MPH:
    """``MPH_components_setup``: register this executable's components and
    handshake with every other executable of the job.

    Collective over *world*.  Pass one name per component of this
    executable — one name for a single-component executable (SCME/SCSE),
    several for a multi-component executable (MCSE/MCME)::

        mph = components_setup(world, "atmosphere", env=env)            # SCME
        mph = components_setup(world, "ocean", "ice", env=env)          # MCME
        mph = components_setup(world, "atmosphere", "ocean", "coupler",
                               registry=reg)                            # MCSE

    The registration file comes from *registry* (a
    :class:`~repro.core.registry.Registry`, path, or text) or, when
    launched through :func:`repro.launcher.job.mph_run`, from the job
    environment *env*.
    """
    return components_session(world, *names, registry=registry, env=env).mph(env)


def multi_instance(
    world: Comm,
    prefix: str,
    *,
    registry: Any = None,
    env: Any = None,
) -> MPH:
    """``MPH_multi_instance``: set up one executable replicated as multiple
    instances for ensemble simulation (paper §4.4).

    Every process of the executable calls this with the common component
    name *prefix*; the registration file's ``Multi_Instance`` block
    determines how many instances exist, which processors each owns, and
    the expanded per-instance component names (``Ocean1``, ``Ocean2``, ...)
    plus their argument fields.

    >>> mph = multi_instance(world, "Ocean", env=env)
    >>> mph.comp_name()                      # e.g. "Ocean2" on its ranks
    >>> mph.get_argument("beta", float)      # instance-specific parameter
    """
    return instance_session(world, prefix, registry=registry, env=env).mph(env)
