"""Sessions layer: pset lookup, lazy communicator derivation, and the
layout cache.

The pset cases run on both execution backends via the ``backend_config``
fixture.  The layout-cache cases are thread-backend only: they count the
thread world's messages.  The failure shrink's epochs, and psets and
``migrate`` after one, are pinned in
``tests/mpi/test_recovery.py::TestMphShrinkWorld`` (a crash needs the
thread world).
"""

from __future__ import annotations

import pytest

from repro import mph_run
from repro.core.handshake import ComponentDecl
from repro.core.session import PrecomputedLayout, Session, components_session
from repro.errors import HandshakeError, SessionError
from repro.mpi import World
from repro.mpi.executor import run_world

REG = "BEGIN\natm\nocn\nEND"


class TestPsetCatalog:
    """Pset lookup and lazy derivation — collective only over members."""

    def test_catalog_lookup_and_lazy_comms(self, backend_config):
        def atm(world, env):
            s = components_session(world, "atm", env=env)
            names = s.psets()
            assert "mph://world" in names
            assert "mph://component/atm" in names
            assert "mph://component/ocn" in names
            assert "mph://self" in names

            # Shorthand resolution: bare component name, component/ path,
            # and the full URI all land on the same pset.
            ps = s.pset("atm")
            assert ps.name == "mph://component/atm"
            assert s.pset("component/atm").members == ps.members
            assert s.pset("mph://component/atm").members == ps.members
            assert ps.size == 2 and ps.epoch == 0

            with pytest.raises(SessionError, match="unknown process set"):
                s.pset("mph://component/nope")
            # Members only: this process is not in ocn's pset.
            with pytest.raises(SessionError, match="not a member"):
                s.comm("ocn")

            # Lazy derivation + caching: same epoch, same object.
            comm = s.comm("atm")
            assert comm is s.comm("atm")
            assert comm.size == 2
            assert comm.name == "MPH:atm"
            me = s.comm("mph://self")
            assert me.size == 1
            return ("atm", comm.allreduce(1), tuple(sorted(names)))

        def ocn(world, env):
            s = components_session(world, "ocn", env=env)
            comm = s.comm("ocn")
            return ("ocn", comm.size, s.pset("world").size)

        result = mph_run(
            [(atm, 2), (ocn, 2)], registry=REG, config=backend_config, timeout=120.0
        )
        atm_views = result.by_executable(0)
        assert atm_views[0][1] == 2
        assert atm_views[0][2] == atm_views[1][2]
        assert result.by_executable(1)[0] == ("ocn", 2, 4)

    def test_world_pset_is_active_world(self, backend_config):
        def solo(world, env):
            s = components_session(world, "atm", env=env)
            assert s.pset("world").members == tuple(range(world.size))
            assert s.epoch == 0 and s.is_active
            return s.comm("world").allreduce(world.rank)

        def ocn(world, env):
            s = components_session(world, "ocn", env=env)
            return s.comm("world").allreduce(world.rank)

        result = mph_run(
            [(solo, 2), (ocn, 1)], registry=REG, config=backend_config, timeout=120.0
        )
        assert set(result.values()) == {0 + 1 + 2}


def _layout_registry(nprocs: int, multi: bool) -> str:
    """``atm`` on rank 0; the other ranks are one executable — ``ocn``
    alone (every entry single-component, so ``"world_split"``), or
    ``ocn`` over all of them with ``ice`` overlapping its first process
    (``"exe_then_comp"``)."""
    if not multi:
        return REG
    return (
        f"BEGIN\natm\nMulti_Component_Begin\nocn 0 {nprocs - 2}\nice 0 0\n"
        "Multi_Component_End\nEND"
    )


def _layout_decl(rank: int, multi: bool) -> ComponentDecl:
    if rank == 0:
        return ComponentDecl(("atm",))
    return ComponentDecl(("ocn", "ice") if multi else ("ocn",))


def _init_world(nprocs, registry_input, decl_of):
    """Init a session on every rank of a thread world and take an MPH
    view; returns each rank's view and the messages the world sent."""

    def main(comm):
        s = Session.init(comm, decl_of(comm.rank), registry_input)
        mph = s.mph()
        sizes = {name: mph.component_comm(name).size for name in mph.comp_names()}
        return (s.layout.executables, s.layout.components, s.strategy, sizes)

    world = World(nprocs)
    results = run_world(world, [main] * nprocs, timeout=60.0)
    return [r.value for r in results], world.traffic_snapshot().messages


class TestPrecomputedLayout:
    """The layout-cache path of ``Session.init``: a layout resolved ahead
    of time gives what the live exchange gives, without the exchange."""

    @pytest.mark.parametrize("multi", [False, True], ids=["single", "multi"])
    @pytest.mark.parametrize("nprocs", [2, 3, 5])
    def test_matches_live_exchange(self, nprocs, multi):
        registry = _layout_registry(nprocs, multi)
        decls = [_layout_decl(r, multi) for r in range(nprocs)]
        pre = PrecomputedLayout.build(registry, decls)

        def decl_of(rank):
            return decls[rank]

        live, live_msgs = _init_world(nprocs, registry, decl_of)
        cached, cached_msgs = _init_world(nprocs, pre, decl_of)
        assert cached == live
        assert live[0][2] == ("exe_then_comp" if multi else "world_split")
        assert live[-1][3]["ocn"] == nprocs - 1
        # The registry bcast (P-1) and the declaration allgather (2(P-1))
        # are the only messages the cache saves.
        assert live_msgs - cached_msgs == 3 * (nprocs - 1)

    @pytest.mark.parametrize("nprocs", [2, 3, 5])
    def test_stale_declaration_fails_the_job(self, nprocs):
        pre = PrecomputedLayout.build(
            REG, [_layout_decl(r, False) for r in range(nprocs)]
        )

        def decl_of(rank):
            # The last rank declares what the cached layout did not expect.
            return ComponentDecl(("atm",) if rank in (0, nprocs - 1) else ("ocn",))

        with pytest.raises(HandshakeError, match="stale"):
            _init_world(nprocs, pre, decl_of)

    @pytest.mark.parametrize("nprocs", [2, 3, 5])
    def test_layout_for_another_world_size_fails(self, nprocs):
        pre = PrecomputedLayout.build(
            REG, [_layout_decl(r, False) for r in range(nprocs + 1)]
        )
        with pytest.raises(HandshakeError, match=f"covers {nprocs + 1} ranks"):
            _init_world(nprocs, pre, lambda rank: _layout_decl(rank, False))
