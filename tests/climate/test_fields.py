"""Distributed fields: halo exchange, gather/scatter, reductions
(repro.climate.fields)."""

import numpy as np
import pytest

from repro.climate.fields import (
    DistributedField,
    reduce_shares,
    weighted_global_sum,
    weighted_global_sums,
    weighted_shares,
)
from repro.climate.grid import Decomposition, LatLonGrid
from repro.errors import ReproError

GRID = LatLonGrid(8, 6, name="t")


class TestConstruction:
    def test_zero_initialised(self, leg_spmd):
        def main(comm):
            f = DistributedField(comm, GRID)
            return (f.local_shape, float(f.data.sum()))

        values = leg_spmd(4, main)
        assert values == [((2, 6), 0.0)] * 4

    def test_from_function_matches_serial(self, leg_spmd):
        def init(lat, lon):
            return lat + 0.01 * lon

        def main(comm):
            return DistributedField.from_function(comm, GRID, init).gather_global()

        serial = leg_spmd(1, main)[0]
        parallel = leg_spmd(4, main)[0]
        np.testing.assert_array_equal(serial, parallel)

    def test_from_global_slices(self, leg_spmd):
        full = np.arange(48, dtype=float).reshape(8, 6)

        def main(comm):
            f = DistributedField.from_global(comm, GRID, full)
            start, stop = f.rows_range
            np.testing.assert_array_equal(f.data, full[start:stop])
            return True

        assert all(leg_spmd(3, main))

    @pytest.mark.parametrize(
        "shape",
        [(6, 8), (16, 3), (8, 5), (7, 6)],
        ids=["transposed", "same_size", "fewer_cols", "fewer_rows"],
    )
    def test_from_global_refuses_a_wrong_shape(self, spmd, shape):
        """A full array that is not the grid's shape is refused before any
        rank slices it, not cut into blocks that fail later in numpy."""

        def main(comm):
            DistributedField.from_global(comm, GRID, np.zeros(shape))

        with pytest.raises(ReproError, match="global field shape"):
            spmd(2, main)

    def test_bad_local_shape_rejected(self, spmd):
        def main(comm):
            DistributedField(comm, GRID, data=np.zeros((1, 1)))

        with pytest.raises(ReproError, match="local block shape"):
            spmd(2, main)

    def test_copy_is_deep(self, leg_spmd):
        def main(comm):
            f = DistributedField(comm, GRID)
            g = f.copy()
            g.data += 1.0
            return float(f.data.sum())

        assert leg_spmd(2, main) == [0.0, 0.0]


class TestGatherScatter:
    def test_gather_reassembles(self, leg_spmd):
        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: la * lo)
            full = f.gather_global()
            return None if full is None else full.shape

        values = leg_spmd(4, main)
        assert values[0] == (8, 6)
        assert values[1:] == [None, None, None]

    def test_scatter_roundtrip(self, leg_spmd):
        full = np.arange(48, dtype=float).reshape(8, 6)

        def main(comm):
            f = DistributedField(comm, GRID)
            f.set_from_global(full if comm.rank == 0 else None)
            again = f.gather_global()
            return None if again is None else np.array_equal(again, full)

        assert leg_spmd(4, main)[0] is True

    def test_set_sends_each_rank_its_band_only(self, monkeypatch):
        """A restore scatters: each non-root rank of a 4-rank restore is
        delivered one envelope holding its own band's bytes, not the
        whole field's."""
        from repro.mpi import run_spmd
        from repro.mpi.mailbox import Mailbox

        full = np.arange(48, dtype=float).reshape(8, 6)
        received = {}
        deliver = Mailbox.deliver

        def recording(mailbox, env):
            if env.payload.kind == "array":
                received.setdefault(mailbox.owner, []).append(env.payload.nbytes)
            deliver(mailbox, env)

        def main(comm):
            f = DistributedField(comm, GRID)
            f.set_from_global(full if comm.rank == 0 else None)
            return np.array_equal(f.data, full[slice(*f.rows_range)]), f.data.nbytes

        monkeypatch.setattr(Mailbox, "deliver", recording)
        out = run_spmd(4, main)
        assert all(same for same, _ in out)
        band_bytes = out[1][1]
        assert band_bytes * 4 == full.nbytes
        assert sorted(received) == [1, 2, 3]
        for owner, sizes in received.items():
            assert len(sizes) == 1 and band_bytes <= sizes[0] < full.nbytes // 2, (owner, sizes)

    def test_scatter_shape_checked(self, spmd):
        def main(comm):
            f = DistributedField(comm, GRID)
            f.set_from_global(np.zeros((3, 3)) if comm.rank == 0 else None)

        with pytest.raises(ReproError, match="global field shape"):
            spmd(2, main)


class TestHalos:
    def test_interior_halos_are_neighbour_rows(self, leg_spmd):
        full = np.arange(48, dtype=float).reshape(8, 6)

        def main(comm):
            f = DistributedField.from_global(comm, GRID, full)
            north, south = f.exchange_halos()
            start, stop = f.rows_range
            expect_north = full[stop] if stop < 8 else full[stop - 1]
            expect_south = full[start - 1] if start > 0 else full[start]
            return (
                np.array_equal(north, expect_north),
                np.array_equal(south, expect_south),
            )

        assert leg_spmd(4, main) == [(True, True)] * 4

    def test_pole_halos_replicate_edges(self, leg_spmd):
        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: la)
            north, south = f.exchange_halos()
            if comm.rank == 0:
                return np.array_equal(south, f.data[0])
            if comm.rank == comm.size - 1:
                return np.array_equal(north, f.data[-1])
            return True

        assert all(leg_spmd(4, main))

    def test_laplacian_decomposition_independent(self, leg_spmd):
        def main(comm):
            f = DistributedField.from_function(
                comm, GRID, lambda la, lo: np.sin(np.deg2rad(la)) * np.cos(np.deg2rad(lo))
            )
            lap = f.laplacian()
            out = DistributedField(comm, GRID, data=lap)
            return out.gather_global()

        serial = leg_spmd(1, main)[0]
        for n in (2, 4, 8):
            parallel = leg_spmd(n, main)[0]
            np.testing.assert_array_equal(serial, parallel)

    def test_laplacian_of_constant_is_zero(self, leg_spmd):
        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: 0 * la + 7.0)
            return float(np.abs(f.laplacian()).max())

        assert leg_spmd(4, main) == [0.0] * 4


def vstack_roll_laplacian(full):
    """The band Laplacian as it was written before the padded stencil —
    two ``vstack`` and two ``roll`` — on a whole field (poles replicate,
    longitude wraps): the bitwise reference of :meth:`laplacian`."""
    up = np.vstack([full[1:], full[-1:]])
    down = np.vstack([full[:1], full[:-1]])
    east = np.roll(full, -1, axis=1)
    west = np.roll(full, 1, axis=1)
    return up + down + east + west - 4.0 * full


def wavy(la, lo):
    return 280.0 + 17.0 * np.sin(np.deg2rad(1.3 * la)) * np.cos(np.deg2rad(lo)) + 1e-3 * lo


class TestPaddedStencil:
    @pytest.mark.parametrize(
        "shape, procs",
        [((4, 6), 4), ((1, 6), 1), ((6, 1), 1), ((6, 1), 3), ((7, 5), 3), ((7, 5), 1)],
        ids=["1-row_bands", "1-row_grid", "1-column_grid", "1-column_bands", "3_ranks_7_rows", "serial"],
    )
    def test_equals_the_vstack_roll_formula_bitwise(self, leg_spmd, shape, procs):
        grid = LatLonGrid(*shape)
        full = np.asarray(wavy(*np.meshgrid(grid.lat_centers, grid.lon_centers, indexing="ij")))

        def main(comm):
            f = DistributedField.from_function(comm, grid, wavy)
            return DistributedField(comm, grid, data=f.laplacian()).gather_global()

        lap = leg_spmd(procs, main)[0]
        reference = vstack_roll_laplacian(full)
        assert lap.tobytes() == reference.tobytes()

    def test_result_is_a_fresh_array(self, leg_spmd):
        """The trial-step memo freezes what :meth:`laplacian` returns, so
        no later call may write into it."""

        def main(comm):
            f = DistributedField.from_function(comm, GRID, wavy)
            first = f.laplacian()
            first.flags.writeable = False
            kept = first.copy()
            f.data = f.data * 2.0
            second = f.laplacian()
            return (
                second.flags.writeable
                and not np.shares_memory(first, second)
                and not np.shares_memory(first, f.data)
                and np.array_equal(first, kept)
            )

        assert all(leg_spmd(2, main))


class TestReductions:
    def test_area_mean_matches_serial_grid(self, leg_spmd):
        full_holder = {}

        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: la**2 + lo)
            return f.area_mean()

        serial = leg_spmd(1, main)[0]
        for n in (2, 4):
            values = leg_spmd(n, main)
            assert values == [serial] * n  # bitwise identical on all ranks

    def test_area_mean_constant(self, leg_spmd):
        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: 0 * la + 2.5)
            return f.area_mean()

        assert leg_spmd(4, main)[0] == pytest.approx(2.5)


class TestCanonicalSum:
    """Each full latitude row of the weighted field summed in C order,
    then the row totals in latitude order: the one definition every
    decomposition reproduces, and what a whole-row rank ships."""

    @staticmethod
    def canonical(full):
        rows = np.array([np.sum(row) for row in full * GRID.area_weights])
        return float(np.sum(rows))

    def test_matches_the_definition_on_every_decomposition(self, leg_spmd):
        full = np.random.default_rng(7).standard_normal(GRID.shape) * 1e3
        expected = self.canonical(full)

        def main(comm):
            f = DistributedField(comm, GRID)
            f.data = full[slice(*f.rows_range)].copy()
            return f.area_mean()

        for n in (1, 2, 3, 6):
            assert leg_spmd(n, main) == [expected] * n, n

    def test_a_band_ships_its_row_totals(self, leg_spmd):
        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: la + lo)
            share = weighted_shares(GRID, [f.data, 2 * f.data], f.rows_range)
            return share.shape, f.local_shape

        for shape, (rows, _) in leg_spmd(2, main):
            assert shape == (2, rows)

    def test_leading_axes_settle_one_total_each(self, leg_spmd):
        """A ledger's stack of k steps reduces to k rows of totals, each
        the bits the step's own reduction would give."""

        def main(comm):
            f = DistributedField.from_function(comm, GRID, lambda la, lo: la * lo)
            steps = [[f.data * (k + 1), f.data - k] for k in range(3)]
            stacked = np.stack([weighted_shares(GRID, s, f.rows_range) for s in steps])
            totals = reduce_shares(comm, stacked)
            alone = [weighted_global_sums(comm, GRID, s, f.rows_range) for s in steps]
            return totals.shape, [tuple(float(t) for t in row) for row in totals] == alone

        assert leg_spmd(3, main) == [((3, 2), True)] * 3

    @staticmethod
    def slice_layout_totals(shares, bands):
        """The settle as it was written when a share travelled with its
        ``(row, column)`` slices: rank 0 laid each band's row totals into
        an ``nlat``-row array at its rows, then summed it."""
        rows = np.empty(shares[0].shape[:-1] + (GRID.nlat,))
        for (start, stop), share in zip(bands, shares):
            rows[..., slice(start, stop)] = share
        return rows.sum(axis=-1)

    @pytest.mark.parametrize("procs", [1, 2, 3, 6])
    def test_rank_order_equals_the_slice_layout_bitwise(self, leg_spmd, procs):
        """Bands are cut in rank order, so joining the gathered shares
        builds the array the slice layout built: the same totals to the
        bit, for one step and for a stack of steps."""
        rng = np.random.default_rng(procs)
        steps = [
            rng.standard_normal((3,) + GRID.shape) * 10.0 ** rng.integers(-3, 4) for _ in range(4)
        ]
        bands = [Decomposition(GRID, procs).rows(r) for r in range(procs)]

        def shares_of(step, band):
            start, stop = band
            return weighted_shares(GRID, list(step[:, start:stop]), band)

        one = self.slice_layout_totals([shares_of(steps[0], b) for b in bands], bands)
        stacked = self.slice_layout_totals(
            [np.stack([shares_of(step, b) for step in steps]) for b in bands], bands
        )

        def main(comm):
            band = bands[comm.rank]
            return (
                reduce_shares(comm, shares_of(steps[0], band)),
                reduce_shares(comm, np.stack([shares_of(step, band) for step in steps])),
            )

        for got_one, got_stacked in leg_spmd(procs, main):
            assert got_one.shape == (3,) and got_stacked.shape == (4, 3)
            assert got_one.tobytes() == one.tobytes()
            assert got_stacked.tobytes() == stacked.tobytes()


class TestFusedSums:
    """``weighted_global_sums``: k integrands in one reduction are the k
    single reductions, to the bit, however the field is cut."""

    INTEGRANDS = (
        lambda la, lo: la**2 + lo,
        lambda la, lo: np.sin(np.deg2rad(la)) * np.cos(np.deg2rad(lo)) * 1e3,
        lambda la, lo: 0 * la + 1.0 / 3.0,
        lambda la, lo: -(la + 0.01 * lo),
    )

    @staticmethod
    def sums(comm):
        fields = [DistributedField.from_function(comm, GRID, fn) for fn in TestFusedSums.INTEGRANDS]
        f = fields[0]
        blocks = [g.data for g in fields]
        fused = weighted_global_sums(f.comm, GRID, blocks, f.rows_range)
        singles = tuple(weighted_global_sum(f.comm, GRID, b, f.rows_range) for b in blocks)
        return fused, singles, tuple(g.area_mean() for g in fields)

    def test_k_integrands_equal_k_single_calls_on_every_decomposition(self, leg_spmd):
        reference = leg_spmd(1, self.sums)[0][0]
        assert all(isinstance(total, float) for total in reference)
        for n in (1, 2, 3, 4):
            for fused, singles, means in leg_spmd(n, self.sums):
                assert fused == singles == means == reference  # exact, every rank
