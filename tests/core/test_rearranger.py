"""The MCT-style parallel rearranger (repro.core.rearranger)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import components_setup, mph_run
from repro.core.rearranger import Rearranger, overlap_schedule
from repro.errors import MPHError

REG = "BEGIN\nalpha\nbeta\nEND"


class TestOverlapSchedule:
    def test_identity_decomposition(self):
        assert overlap_schedule(8, 2, 2) == [(0, 0, 0, 4), (1, 1, 4, 8)]

    def test_refinement(self):
        sched = overlap_schedule(8, 2, 4)
        assert sched == [(0, 0, 0, 2), (0, 1, 2, 4), (1, 2, 4, 6), (1, 3, 6, 8)]

    def test_misaligned_blocks(self):
        sched = overlap_schedule(10, 3, 2)
        # src blocks: 0-3, 4-6, 7-9; dst blocks: 0-4, 5-9
        assert sched == [(0, 0, 0, 4), (1, 0, 4, 5), (1, 1, 5, 7), (2, 1, 7, 10)]

    @given(
        nrows=st.integers(1, 60),
        src=st.integers(1, 6),
        dst=st.integers(1, 6),
    )
    @settings(max_examples=60)
    def test_partition_property(self, nrows, src, dst):
        """Every schedule covers each row exactly once."""
        if nrows < max(src, dst):
            return
        sched = overlap_schedule(nrows, src, dst)
        covered = np.zeros(nrows, dtype=int)
        for s, d, lo, hi in sched:
            covered[lo:hi] += 1
        assert np.all(covered == 1)


def rearrange_job(n_alpha, n_beta, nrows, ncols=3, **kw):
    """alpha holds a row-identified field; route it to beta and report."""

    def alpha(world, env):
        mph = components_setup(world, "alpha", env=env)
        r = Rearranger(mph, "alpha", "beta", nrows, ncols)
        start, stop = r.src_rows
        block = np.arange(start, stop, dtype=float)[:, None] * np.ones(ncols)
        out = r(block)
        assert out is None  # alpha is not a destination member
        return (start, stop)

    def beta(world, env):
        mph = components_setup(world, "beta", env=env)
        r = Rearranger(mph, "alpha", "beta", nrows, ncols)
        out = r(None)
        start, stop = r.dst_rows
        return (start, stop, out[:, 0].tolist())

    return mph_run([(alpha, n_alpha), (beta, n_beta)], registry=REG, **kw)


class TestRearrangement:
    @pytest.mark.parametrize("n_alpha,n_beta", [(1, 1), (2, 3), (4, 2), (3, 3)])
    def test_rows_arrive_at_new_owners(self, n_alpha, n_beta):
        nrows = 12
        result = rearrange_job(n_alpha, n_beta, nrows)
        for start, stop, values in result.by_executable(1):
            assert values == [float(r) for r in range(start, stop)]

    def test_roundtrip_identity(self):
        """A -> B -> A returns the original field exactly."""
        nrows, ncols = 10, 2

        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            fwd = Rearranger(mph, "alpha", "beta", nrows, ncols, tag=951_000)
            back = Rearranger(mph, "beta", "alpha", nrows, ncols, tag=952_000)
            start, stop = fwd.src_rows
            block = np.random.default_rng(start).normal(size=(stop - start, ncols))
            fwd(block)
            returned = back(None)
            return np.array_equal(returned, block)

        def beta(world, env):
            mph = components_setup(world, "beta", env=env)
            fwd = Rearranger(mph, "alpha", "beta", nrows, ncols, tag=951_000)
            back = Rearranger(mph, "beta", "alpha", nrows, ncols, tag=952_000)
            got = fwd(None)
            back(got)
            return True

        result = mph_run([(alpha, 3), (beta, 2)], registry=REG)
        assert all(result.by_executable(0))

    def test_self_repartition(self):
        """src == dst component: a repartition onto itself is identity."""

        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", "alpha", 8, 2)
            start, stop = r.src_rows
            block = np.full((stop - start, 2), float(world.rank))
            out = r(block)
            return np.array_equal(out, block)

        def beta(world, env):
            components_setup(world, "beta", env=env)
            return True

        result = mph_run([(alpha, 2), (beta, 1)], registry=REG)
        assert all(result.by_executable(0))

    def test_overlapping_components(self):
        """Components sharing processors route through self-sends."""
        reg = """
BEGIN
Multi_Component_Begin
src 0 1
dst 0 2
Multi_Component_End
END
"""

        def program(world, env):
            mph = components_setup(world, "src", "dst", env=env)
            r = Rearranger(mph, "src", "dst", 6, 1)
            block = None
            if mph.in_component("src"):
                start, stop = r.src_rows
                block = np.arange(start, stop, dtype=float)[:, None]
            out = r(block)
            if out is None:
                return None
            start, stop = r.dst_rows
            return out[:, 0].tolist() == [float(x) for x in range(start, stop)]

        result = mph_run([(program, 3)], registry=reg)
        assert result.values() == [True, True, True]

    def test_wrong_block_shape(self):
        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", "beta", 8, 2)
            r(np.zeros((1, 1)))

        def beta(world, env):
            mph = components_setup(world, "beta", env=env)
            Rearranger(mph, "alpha", "beta", 8, 2)(None)

        with pytest.raises(MPHError, match="source block shape"):
            mph_run([(alpha, 2), (beta, 1)], registry=REG)

    def test_source_must_pass_block(self):
        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            Rearranger(mph, "alpha", "beta", 8, 2)(None)

        def beta(world, env):
            mph = components_setup(world, "beta", env=env)
            Rearranger(mph, "alpha", "beta", 8, 2)(None)

        with pytest.raises(MPHError, match="must pass its block"):
            mph_run([(alpha, 2), (beta, 1)], registry=REG)

    def test_too_few_rows(self):
        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            Rearranger(mph, "alpha", "beta", 1, 2)

        def beta(world, env):
            mph = components_setup(world, "beta", env=env)
            Rearranger(mph, "alpha", "beta", 1, 2)

        with pytest.raises(MPHError, match="block-decompose"):
            mph_run([(alpha, 2), (beta, 1)], registry=REG)


class TestMessageEconomy:
    def test_direct_routing_beats_root_funnel(self):
        """The router moves Θ(overlaps) messages; the rank-0 funnel moves
        gather(P_src-1) + point-to-point + scatter(P_dst-1) *plus* the
        whole field twice through one process.  Verified with the
        substrate's traffic accounting."""
        from repro.launcher.job import MpmdJob

        nrows, ncols = 16, 4

        def route(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", "beta", nrows, ncols)
            start, stop = r.src_rows
            r(np.zeros((stop - start, ncols)))
            return None

        def accept(world, env):
            mph = components_setup(world, "beta", env=env)
            Rearranger(mph, "alpha", "beta", nrows, ncols)(None)
            return None

        job = MpmdJob([(route, 4), (accept, 4)], registry=REG)
        result = job.run()
        # 4x4 aligned blocks -> exactly 4 routed messages beyond handshake
        # traffic; we assert the schedule size directly:
        assert len(overlap_schedule(nrows, 4, 4)) == 4
        assert len(overlap_schedule(nrows, 4, 3)) == 6  # misaligned worst case


class TestCachedSchedule:
    def test_message_count_reuses_init_schedule(self):
        """message_count() must read the schedule stored at construction,
        not recompute it."""
        import repro.core.rearranger as rearranger_mod

        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", "alpha", 8, 2)
            expected = len(overlap_schedule(8, 1, 1))
            original = rearranger_mod.overlap_schedule

            def boom(*a, **k):
                raise AssertionError("schedule recomputed after __init__")

            rearranger_mod.overlap_schedule = boom
            try:
                count = r.message_count()
            finally:
                rearranger_mod.overlap_schedule = original
            return count == expected

        result = mph_run([(alpha, 1)], registry="BEGIN\nalpha\nEND")
        assert result.values() == [True]


class TestRoutingTraffic:
    def test_routes_over_buffer_transport(self):
        """Routed traffic travels buffer-mode: no pickles."""

        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", "beta", 8, 2)
            before = world.world.traffic_snapshot()
            start, stop = r.src_rows
            r(np.zeros((stop - start, 2)))
            # Sends are recorded at delivery time, inside r(); only
            # routed traffic moves in this window.
            return world.world.traffic_snapshot().since(before).by_kind

        def beta(world, env):
            mph = components_setup(world, "beta", env=env)
            Rearranger(mph, "alpha", "beta", 8, 2)(None)
            return None

        result = mph_run([(alpha, 2), (beta, 2)], registry=REG)
        by_kind = result.by_executable(0)[0]
        assert by_kind.get("buffer", 0) > 0 and by_kind.get("object", 0) == 0

    def test_profile_counts_bytes(self):
        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", "beta", 8, 2)
            start, stop = r.src_rows
            r(np.zeros((stop - start, 2)))
            return dict(mph.profile.sent), mph.profile.total_bytes_sent

        def beta(world, env):
            mph = components_setup(world, "beta", env=env)
            Rearranger(mph, "alpha", "beta", 8, 2)(None)
            return dict(mph.profile.received), mph.profile.total_bytes_received

        result = mph_run([(alpha, 1), (beta, 1)], registry=REG)
        sent, sent_bytes = result.by_executable(0)[0]
        received, recv_bytes = result.by_executable(1)[0]
        assert sent == {"beta": 1} and received == {"alpha": 1}
        # One staging buffer each way: 2 header + 8 rows x 2 cols float64.
        assert sent_bytes == recv_bytes == (2 + 8 * 2) * 8


def row_field(start, stop, ncols):
    """Rows that name themselves: row *r* holds ``r`` in every column."""
    return np.arange(start, stop, dtype=float)[:, None] * np.ones(ncols)


class TestOneProcessSides:
    """A side can be one process of a component holding the whole field —
    the shape of a serial flux coupler's exchange."""

    NROWS, NCOLS = 11, 3

    def exchange(self, n_alpha, n_beta, owner, rounds=3):
        """alpha's blocks → beta's local processor *owner* → back doubled,
        by halves, the round number riding in every header."""
        nrows, ncols = self.NROWS, self.NCOLS

        def routers(mph):
            return (
                Rearranger(mph, "alpha", ("beta", owner), nrows, ncols, tag=951_000, extra=1),
                Rearranger(mph, ("beta", owner), "alpha", nrows, ncols, tag=952_000, extra=2),
            )

        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            there, back = routers(mph)
            block = row_field(*there.src_rows, ncols)
            assert there.dst_rows == (0, 0) and back.src_rows == (0, 0)
            seen = []
            for step in range(rounds):
                there.send(block + step, (step,))
                out, extra = back.recv()
                assert np.array_equal(out, 2.0 * (block + step))
                seen.append(extra)
            return seen

        def beta(world, env):
            mph = components_setup(world, "beta", env=env)
            there, back = routers(mph)
            if mph.local_proc_id() != owner:
                with pytest.raises(MPHError, match="no destination member"):
                    there.recv()
                with pytest.raises(MPHError, match="no source member"):
                    back.send(np.zeros((nrows, ncols)), (0, 0))
                return None
            assert there.dst_rows == back.src_rows == (0, nrows)
            for step in range(rounds):
                full, (got_step,) = there.recv()
                assert got_step == step
                assert np.array_equal(full, row_field(0, nrows, ncols) + step)
                back.send(2.0 * full, (step, 7))
            return "owner"

        return mph_run([(alpha, n_alpha), (beta, n_beta)], registry=REG)

    @pytest.mark.parametrize("n_alpha,n_beta,owner", [(1, 1, 0), (4, 1, 0), (3, 2, 1), (2, 3, 0)])
    def test_n_to_one_and_back(self, n_alpha, n_beta, owner):
        result = self.exchange(n_alpha, n_beta, owner)
        for seen in result.by_executable(0):
            assert seen == [(0.0, 7.0), (1.0, 7.0), (2.0, 7.0)]
        assert result.by_executable(1).count("owner") == 1

    def test_same_process_on_both_sides(self):
        """A component rank that is also the single destination sends to
        itself through the normal path; the halves are called apart."""
        nrows, ncols = 6, 2

        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", ("alpha", 1), nrows, ncols, extra=1)
            r.send(row_field(*r.src_rows, ncols), (5,))
            if mph.local_proc_id() != 1:
                return None
            full, extra = r.recv()
            return np.array_equal(full, row_field(0, nrows, ncols)) and extra == (5.0,)

        assert mph_run([(alpha, 3)], registry="BEGIN\nalpha\nEND").values() == [None, True, None]


class TestHeaderExtras:
    def test_wrong_number_of_extras_rejected(self):
        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", "alpha", 4, 2, extra=2)
            with pytest.raises(MPHError, match="2 extra header values, got 1"):
                r.send(np.zeros((4, 2)), (1,))
            return True

        assert mph_run([(alpha, 1)], registry="BEGIN\nalpha\nEND").values() == [True]

    def test_pieces_of_one_transfer_must_agree(self):
        """Two sources in different rounds: the destination refuses to
        assemble one field from both."""

        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", ("beta", 0), 4, 2, extra=1)
            r.send(np.zeros((2, 2)), (mph.local_proc_id(),))  # 0 and 1
            return True

        def beta(world, env):
            mph = components_setup(world, "beta", env=env)
            r = Rearranger(mph, "alpha", ("beta", 0), 4, 2, extra=1)
            with pytest.raises(MPHError, match=r"carry \(0.0,\) and \(1.0,\)"):
                r.recv()
            return True

        assert all(mph_run([(alpha, 2), (beta, 1)], registry=REG).values())

    def test_profile_counts_the_header(self):
        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, "alpha", "alpha", 4, 2, extra=3)
            r.send(np.zeros((4, 2)), (1, 2, 3))
            r.recv()
            return mph.profile.total_bytes_sent, mph.profile.total_bytes_received

        assert mph_run([(alpha, 1)], registry="BEGIN\nalpha\nEND").values() == [
            ((2 + 3 + 4 * 2) * 8,) * 2
        ]


class TestDeadDestination:
    def test_live_destinations_get_their_rows_then_the_failure_is_raised(self):
        """beta's rank 1 is dead: the source still serves ranks 0 and 2
        before it reports, and their receives complete."""
        from repro.errors import ProcessFailedError
        from repro.mpi import SimulatedCrash

        nrows, ncols = 9, 2

        def alpha(world, env):
            mph = components_setup(world, "alpha", env=env)
            r = Rearranger(mph, ("alpha", 0), "beta", nrows, ncols, extra=1)
            mph.recv("beta", 0, tag=5)  # beta's rank 1 is dead by now
            with pytest.raises(ProcessFailedError) as failure:
                r.send(row_field(0, nrows, ncols), (3,))
            return failure.value.failed_ranks

        def beta(world, env):
            mph = components_setup(world, "beta", env=env)
            r = Rearranger(mph, ("alpha", 0), "beta", nrows, ncols, extra=1)
            me = mph.local_proc_id()
            if me == 1:
                raise SimulatedCrash("dies before the transfer")
            if me == 0:
                while not world.world.rank_failed(mph.global_id("beta", 1)):
                    pass
                mph.send("go", "alpha", 0, tag=5)
            out, extra = r.recv()
            return out[:, 0].tolist(), extra

        result = mph_run([(alpha, 1), (beta, 3)], registry=REG)
        assert result.by_executable(0) == [(2,)]  # world rank of beta's local 1
        got = result.by_executable(1)
        assert got[0] == ([0.0, 1.0, 2.0], (3.0,))
        assert got[1] is None
        assert got[2] == ([6.0, 7.0, 8.0], (3.0,))
