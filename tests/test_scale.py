"""Scale smoke tests: larger worlds and component counts than the unit
tests use — paper-sized configurations must hold together end to end.

Deflake audit: no wall-clock sleeps here — every test is rendezvous-
synchronized by its own collectives, so nothing to convert to the
``World.wait_until_blocked`` event hook."""

import numpy as np

from repro import components_setup, mph_run, multi_instance
from repro.mpi import run_spmd


class TestSubstrateScale:
    def test_64_rank_collectives(self):
        def main(comm):
            total = comm.allreduce(comm.rank)
            gathered = comm.allgather(comm.rank % 7)
            comm.barrier()
            sub = comm.split(comm.rank % 4, key=comm.rank)
            return (total, len(gathered), sub.size)

        values = run_spmd(64, main, timeout=120)
        assert values[0] == (2016, 64, 16)
        assert len(set(values)) == 1

    def test_deep_split_tree(self):
        """Five generations of splits: 32 -> 16 -> 8 -> 4 -> 2 -> 1."""

        def main(comm):
            current = comm
            sizes = []
            while current.size > 1:
                current = current.split(current.rank % 2, key=current.rank)
                sizes.append(current.size)
            return sizes

        values = run_spmd(32, main, timeout=120)
        assert values[0] == [16, 8, 4, 2, 1]


class TestInitScale:
    """The ``init-scale`` CI smoke: the bootstrap must complete a
    512-rank rendezvous (simulated ranks — one thread each over real
    Unix sockets).  Every simulated rank verifies it got the full peer
    map, so this asserts protocol correctness at width; timings from
    shared runners are noise."""

    def test_bootstrap_512_ranks(self):
        from benchmarks.bench_init import bootstrap_seconds

        assert bootstrap_seconds(512) > 0.0


class TestHandshakeScale:
    def test_paper_scale_mcme(self):
        """A CCSM-sized job: 36 + 32 + 4 processes, 6 components, overlap —
        the paper's §4.2/§4.3 sizes combined."""
        registry = """
BEGIN
Multi_Component_Begin
atmosphere 0 15
land       0 15
chemistry  16 35
Multi_Component_End
Multi_Component_Begin
ocean 0 15
ice   16 31
Multi_Component_End
Multi_Component_Begin
coupler 0 1
io      2 3
Multi_Component_End
END
"""

        def exe(*names):
            def program(world, env):
                mph = components_setup(world, *names, env=env)
                return (mph.comp_names(), mph.total_components())

            program.__name__ = names[0]
            return program

        result = mph_run(
            [
                (exe("atmosphere", "land", "chemistry"), 36),
                (exe("ocean", "ice"), 32),
                (exe("coupler", "io"), 4),
            ],
            registry=registry,
            timeout=120,
        )
        assert result.values()[0] == (("atmosphere", "land"), 7)
        assert result.values()[70] == (("io",), 7)

    def test_many_single_component_executables(self):
        """16 executables of 3 processes: the world_split fast path at
        width."""
        names = [f"model{i:02d}" for i in range(16)]
        registry = "BEGIN\n" + "\n".join(names) + "\nEND"

        def make(name):
            def program(world, env):
                mph = components_setup(world, name, env=env)
                return (mph.comp_name(), mph.component_comm().size, mph.strategy)

            program.__name__ = name
            return program

        result = mph_run([(make(n), 3) for n in names], registry=registry, timeout=120)
        for i, name in enumerate(names):
            assert result.by_executable(i) == [(name, 3, "world_split")] * 3

    def test_large_ensemble(self):
        """A 12-instance MIME ensemble plus statistics."""
        lines = "\n".join(f"Run{i + 1:02d} {2 * i} {2 * i + 1}" for i in range(12))
        registry = f"BEGIN\nMulti_Instance_Begin\n{lines}\nMulti_Instance_End\nstats\nEND"

        def run(world, env):
            mph = multi_instance(world, "Run", env=env)
            if mph.local_proc_id() == 0:
                mph.send(mph.comp_name(), "stats", 0, tag=3)
            return mph.comp_name()

        def stats(world, env):
            mph = components_setup(world, "stats", env=env)
            got = sorted(mph.recv_any(tag=3)[0] for _ in range(12))
            return got

        result = mph_run([(run, 24), (stats, 1)], registry=registry, timeout=120)
        assert result.by_executable(1)[0] == sorted(f"Run{i + 1:02d}" for i in range(12))
        assert result.by_executable(0)[23] == "Run12"
