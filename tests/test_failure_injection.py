"""Failure injection across layers: things going wrong mid-job must fail
fast, loudly, and with the right diagnosis — never hang."""

import time

import numpy as np
import pytest

from repro import components_setup, mph_run
from repro.errors import AbortError, DeadlockError, ReproError, TimeoutError_
from repro.grid import ClusterSpec, grid_setup, run_grid
from repro.mpi import WorldConfig

FAST = WorldConfig(deadlock_grace=0.3)


class TestMidCouplingFailures:
    REG = "BEGIN\natm\nocn\nEND"

    def test_component_dies_mid_exchange(self):
        """A crash after some successful coupled steps still surfaces the
        original exception, and the partner unwinds."""

        def atm(world, env):
            mph = components_setup(world, "atm", env=env)
            for step in range(5):
                mph.send(step, "ocn", 0, tag=1)
                if step == 2:
                    raise RuntimeError("atmosphere blew up at step 2")
                mph.recv("ocn", 0, tag=2)
            return None

        def ocn(world, env):
            mph = components_setup(world, "ocn", env=env)
            for step in range(5):
                mph.recv("atm", 0, tag=1)
                mph.send(step, "atm", 0, tag=2)
            return None

        with pytest.raises(RuntimeError, match="step 2"):
            mph_run([(atm, 1), (ocn, 1)], registry=self.REG, config=FAST, timeout=20)

    def test_protocol_desync_detected_as_deadlock(self):
        """One side skips a message: the job deadlocks and the watchdog
        names both blocked calls."""

        def atm(world, env):
            mph = components_setup(world, "atm", env=env)
            mph.recv("ocn", 0, tag=9)  # ocn never sends tag 9

        def ocn(world, env):
            mph = components_setup(world, "ocn", env=env)
            mph.recv("atm", 0, tag=9)

        with pytest.raises(DeadlockError) as info:
            mph_run([(atm, 1), (ocn, 1)], registry=self.REG, config=FAST, timeout=20)
        assert "tag=9" in str(info.value)

    def test_slow_component_hits_job_timeout(self):
        def atm(world, env):
            components_setup(world, "atm", env=env)
            time.sleep(30)

        def ocn(world, env):
            mph = components_setup(world, "ocn", env=env)
            mph.recv("atm", 0, tag=1)

        config = WorldConfig(deadlock_detection=False)
        with pytest.raises(TimeoutError_):
            mph_run([(atm, 1), (ocn, 1)], registry=self.REG, config=config, timeout=1.0)


class TestGridFailures:
    def test_remote_cluster_dies_before_directory_exchange(self):
        """A site failing before grid_setup fails the run with the site's
        own error at once, on either backend: the healthy site's directory
        allgather is a collective of the one world the failure aborts."""

        def healthy(world, env):
            mph = components_setup(world, "a", env=env)
            grid_setup(mph, env)
            return True

        def dead_site(world, env):
            raise RuntimeError("site power loss")

        clusters = [
            ClusterSpec("east", [(healthy, 1)], registry="BEGIN\na\nEND"),
            ClusterSpec("west", [(dead_site, 1)], registry="BEGIN\nb\nEND"),
        ]
        for config in (FAST, WorldConfig(backend="process")):
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="site power loss"):
                run_grid(clusters, timeout=15, config=config)
            assert time.monotonic() - start < 5.0

    def test_cross_site_receive_timeout_names_the_address(self):
        """An unanswered cross-site receive is the world's deadlock, and
        the diagnosis names the receive on the wide-area communicator."""

        def waiting(world, env):
            mph = components_setup(world, "a", env=env)
            gmph = grid_setup(mph, env)
            gmph.recv(tag=5)

        def silent(world, env):
            mph = components_setup(world, "b", env=env)
            grid_setup(mph, env)
            return True

        with pytest.raises(DeadlockError, match=r"recv\(source=-101, tag=5\) on COMM_WORLD\.dup"):
            run_grid(
                [
                    ClusterSpec("east", [(waiting, 1)], registry="BEGIN\na\nEND"),
                    ClusterSpec("west", [(silent, 1)], registry="BEGIN\nb\nEND"),
                ],
                timeout=15,
                config=FAST,
            )


class TestStateCorruption:
    def test_truncated_checkpoint_rejected(self, tmp_path, spmd):
        from repro.climate import checkpoint
        from repro.climate.components import OceanModel
        from repro.climate.grid import LatLonGrid

        grid = LatLonGrid(6, 8)

        def save(comm):
            m = OceanModel(comm, grid, OceanModel.default_params())
            checkpoint.save(m, tmp_path, "ocean")
            return None

        spmd(1, save)
        victim = tmp_path / "ocean.ckpt.npz"
        victim.write_bytes(victim.read_bytes()[:40])  # corrupt the archive

        def load(comm):
            m = OceanModel(comm, grid, OceanModel.default_params())
            checkpoint.restore(m, tmp_path, "ocean")

        with pytest.raises(Exception):  # zipfile/numpy surface the corruption
            spmd(1, load)

    def test_registry_unreadable_at_root(self, tmp_path):
        """Only world rank 0 reads the file (§6); its failure must fail
        the whole job, not hang the broadcast."""

        def program(world, env):
            mph = components_setup(world, "solo", env=env)
            return mph.comp_name()

        missing = tmp_path / "never_written.in"
        with pytest.raises((ReproError, OSError)):
            mph_run(
                [(program, 3)], registry=missing, config=FAST, timeout=20
            )


class TestEnsembleFailures:
    REG = """
BEGIN
Multi_Instance_Begin
Run1 0 0
Run2 1 1
Multi_Instance_End
stats
END
"""

    def test_member_death_fails_collection(self):
        from repro.core.ensemble import EnsembleCollector, EnsembleMember

        def run(world, env):
            from repro import multi_instance

            mph = multi_instance(world, "Run", env=env)
            member = EnsembleMember(mph, "stats")
            if mph.comp_name() == "Run2":
                raise ValueError("member diverged (NaN)")
            member.report(0, np.zeros(2))
            return None

        def stats(world, env):
            mph = components_setup(world, "stats", env=env)
            collector = EnsembleCollector.for_prefix(mph, "Run")
            collector.collect(0)

        with pytest.raises(ValueError, match="diverged"):
            mph_run([(run, 2), (stats, 1)], registry=self.REG, config=FAST, timeout=20)
