"""The trial-step memo: what a restored state alone determines is
computed — and its halo rows exchanged — once per snapshot.

An implicit coupling step re-advances every component from the same
step-start snapshot once per solver iteration; only the flux differs.
``state_restore`` arms a memo that lives with the snapshot and the first
``advance_state`` after it takes absorbed solar, OLR and the Laplacian
from there.  Everything here is bitwise: a memoised trajectory is the
one a fresh model computes.
"""

import numpy as np
import pytest

from repro.climate import components
from repro.climate.ccsm import CCSMConfig, run_ccsm
from repro.climate.components import (
    AtmosphereModel,
    LandModel,
    OceanModel,
    SeaIceModel,
    StateSnapshot,
)
from repro.climate.fields import _HALO_TAG_NORTH, _HALO_TAG_SOUTH, DistributedField
from repro.climate.forcing import CO2Scenario, SeasonalForcing
from repro.climate.grid import LatLonGrid
from repro.mpi.comm import Comm
from repro.mpi.constants import PROC_NULL

GRID = LatLonGrid(8, 12)
MODELS = [AtmosphereModel, OceanModel, LandModel, SeaIceModel]
DT = 1800.0
SIZES = (1, 2, 4)


def make(comm, cls):
    """A model with the seasons and a CO2 ramp on, one step in, whose
    Laplacian calls are counted; and two different coupling fluxes."""
    model = cls(
        comm,
        GRID,
        cls.default_params(),
        forcing=SeasonalForcing(),
        co2=CO2Scenario(rate_per_year=0.01),
    )
    model.step(DT)
    calls = []
    laplacian = type(model.temperature).laplacian

    def counted():  # looked up per call: ``temperature`` is one object for life
        calls.append(model.steps_taken)
        return laplacian(model.temperature)

    model.temperature.laplacian = counted

    def flux(scale):
        return DistributedField.from_function(
            comm, GRID, lambda la, lo: scale * np.cos(np.deg2rad(la)) - 0.05 * lo
        ).data

    return model, calls, flux(40.0), flux(-25.0)


def state(model):
    snap = model.state_snapshot()
    budget = snap.pop("budget")
    # The recorded steps are compared by what they settle to.
    del snap["ledger"], snap["settled"]
    return {k: np.array(v) for k, v in snap.items()}, budget


def same(a, b):
    """Bitwise the same model: every recorded step settled (collective,
    so it runs first on every rank), then state and budget."""
    settled = a.settle() == b.settle()
    (sa, ba), (sb, bb) = state(a), state(b)
    return settled and ba == bb and sa.keys() == sb.keys() and all(
        np.array_equal(sa[k], sb[k]) for k in sa
    )


def same_terms(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.mark.parametrize("cls", MODELS)
class TestBitwise:
    def test_second_trial_step_is_a_fresh_models_step(self, spmd, cls):
        """snapshot → advance(f1) → restore → advance(f2) == one advance(f2)
        of a model that never took a snapshot — state and energy terms."""

        def main(comm):
            a, a_calls, f1, f2 = make(comm, cls)
            b, b_calls, _, _ = make(comm, cls)
            snap = a.state_snapshot()
            a.state_restore(snap)
            a.advance_state(DT, f1)
            a.state_restore(snap)
            terms_a = a.advance_state(DT, f2)
            terms_b = b.advance_state(DT, f2)
            # Two trial steps cost what one costs: a Laplacian (one halo
            # exchange) if the model diffuses at all.
            return same(a, b) and same_terms(terms_a, terms_b) and len(a_calls) == len(b_calls)

        for n in SIZES:
            assert all(spmd(n, main)), n

    def test_committing_step_after_trials_is_a_fresh_models_step(self, spmd, cls):
        """The implicit loop's last act: restore once more, then ``step``
        — diagnostics and budget included — from the memo."""

        def main(comm):
            a, a_calls, f1, f2 = make(comm, cls)
            b, _, _, _ = make(comm, cls)
            snap = a.state_snapshot()
            for flux in (f1, f2, f1):
                a.state_restore(snap)
                a.advance_state(DT, flux)
            a.state_restore(snap)
            a.step(DT, f2)
            b.step(DT, f2)
            return same(a, b) and len(a_calls) <= 1

        for n in SIZES:
            assert all(spmd(n, main)), n

    def test_sub_cycled_component_reuses_on_the_first_substep_only(self, spmd, cls):
        """Three substeps of dt/3: only the first starts from the restored
        state, so only it may take from the memo."""
        diffusive = cls.default_params().diffusivity > 0.0

        def main(comm):
            a, a_calls, f1, f2 = make(comm, cls)
            b, _, _, _ = make(comm, cls)
            snap = a.state_snapshot()
            for flux in (f1, f2):
                a.state_restore(snap)
                for _ in range(3):
                    a.advance_state(DT / 3, flux)
            for _ in range(3):
                b.advance_state(DT / 3, f2)
            # Round one: 3 Laplacians; round two: its first substep's is reused.
            return same(a, b) and len(a_calls) == (5 if diffusive else 0)

        for n in SIZES:
            assert all(spmd(n, main)), n

    def test_reassigned_temperature_drops_the_memo(self, spmd, cls):
        """A restored state that was changed before the step is not the
        snapshot's state: nothing is taken from the memo, nothing left in
        it."""
        diffusive = cls.default_params().diffusivity > 0.0

        def main(comm):
            a, a_calls, f1, f2 = make(comm, cls)
            b, _, _, _ = make(comm, cls)
            snap = a.state_snapshot()
            a.state_restore(snap)
            a.advance_state(DT, f1)
            kept = {k: v.copy() for k, v in snap.memo.items()}
            a.state_restore(snap)
            a.temperature.data = a.temperature.data + 1.5
            b.temperature.data = b.temperature.data + 1.5
            a.advance_state(DT, f2)
            b.advance_state(DT, f2)
            untouched = kept.keys() == snap.memo.keys() and all(
                np.array_equal(kept[k], snap.memo[k]) for k in kept
            )
            return same(a, b) and untouched and len(a_calls) == (2 if diffusive else 0)

        for n in SIZES:
            assert all(spmd(n, main)), n


class TestMemoRules:
    def test_memo_lives_with_its_snapshot(self, spmd):
        """Nothing crosses snapshots: a second snapshot starts empty and a
        restore of the first still finds its own."""

        def main(comm):
            m, calls, f1, f2 = make(comm, OceanModel)
            first = m.state_snapshot()
            assert isinstance(first, StateSnapshot) and first.memo == {}
            m.state_restore(first)
            m.advance_state(DT, f1)
            assert sorted(first.memo) == ["laplacian", "olr", "solar"]
            second = m.state_snapshot()  # one step on
            assert second.memo == {}
            m.state_restore(second)
            m.advance_state(DT, f1)
            assert len(calls) == 2  # a new state: its own Laplacian
            for k in first.memo:
                assert first.memo[k] is not second.memo[k]
            m.state_restore(first)
            m.advance_state(DT, f2)
            return len(calls)

        assert spmd(2, main) == [2, 2]

    def test_no_restore_no_memo(self, spmd):
        """Plain stepping — what explicit coupling does — never looks at
        a memo, with or without a snapshot having been taken."""

        def main(comm):
            m, calls, f1, _ = make(comm, AtmosphereModel)
            snap = m.state_snapshot()
            for _ in range(3):
                m.step(DT, f1)
            return len(calls), snap.memo

        assert spmd(2, main) == [(3, {}), (3, {})]

    def test_memo_arrays_are_read_only(self, spmd):
        def main(comm):
            m, _, f1, _ = make(comm, OceanModel)
            snap = m.state_snapshot()
            m.state_restore(snap)
            terms = m.advance_state(DT, f1)
            refused = 0
            for array in (*snap.memo.values(), terms["solar_in"], terms["olr_out"]):
                try:
                    array[0, 0] = 0.0
                except ValueError:
                    refused += 1
            return refused

        assert spmd(1, main) == [5]

    def test_a_plain_dict_still_restores(self, spmd):
        """``state_restore`` takes any mapping with the state's keys; one
        without a memo restores without arming anything."""

        def main(comm):
            a, calls, f1, _ = make(comm, OceanModel)
            b, _, _, _ = make(comm, OceanModel)
            a.state_restore(dict(a.state_snapshot()))
            a.advance_state(DT, f1)
            a.state_restore(dict(b.state_snapshot()))
            a.advance_state(DT, f1)
            b.advance_state(DT, f1)
            return same(a, b) and len(calls) == 2

        assert all(spmd(2, main))


def halo_messages(monkeypatch):
    """Count every halo row actually sent (``PROC_NULL`` sends are not
    messages) from here on; thread ranks share the list."""
    sent = []
    send = Comm.Send

    def counting_send(self, array, dest, tag=0):
        if tag in (_HALO_TAG_NORTH, _HALO_TAG_SOUTH) and dest != PROC_NULL:
            sent.append(tag)
        return send(self, array, dest, tag)

    monkeypatch.setattr(Comm, "Send", counting_send)
    return sent


class TestCoupledRuns:
    NSTEPS = 2

    @pytest.mark.parametrize("exchange", ["p2p", "join"])
    def test_an_implicit_step_exchanges_halos_once(self, monkeypatch, exchange):
        """Default layout: atmosphere on 4 ranks, ocean on 2 — 6 + 2 halo
        rows a Laplacian.  Each of the first two implicit steps is 5
        trial rounds plus the commit, all from one snapshot: 8 rows, where
        every round used to pay them again (48)."""
        sent = halo_messages(monkeypatch)
        out = run_ccsm(
            "scme", CCSMConfig(nsteps=self.NSTEPS, coupling="implicit", exchange=exchange)
        )
        assert out["coupler"]["coupling_iterations"] == [5] * self.NSTEPS
        assert len(sent) == 8 * self.NSTEPS

    def test_sub_cycled_implicit_step(self, monkeypatch):
        """The ocean at dt/3: its first substep's rows are reused, the
        other two substeps' are not (2 rows × 2 substeps × 7 rounds)."""
        sent = halo_messages(monkeypatch)
        out = run_ccsm(
            "scme",
            CCSMConfig(nsteps=self.NSTEPS, coupling="implicit", subcycle={"ocean": 3}),
        )
        rounds = [n + 1 for n in out["coupler"]["coupling_iterations"]]
        assert len(sent) == sum(8 + 2 * 2 * r for r in rounds)

    def test_an_explicit_run_never_creates_a_memo(self, monkeypatch):
        sent = halo_messages(monkeypatch)
        memos = []
        recall = components._recall

        def watching_recall(memo, key, compute):
            memos.append(memo)
            return recall(memo, key, compute)

        monkeypatch.setattr(components, "_recall", watching_recall)
        monkeypatch.setattr(
            StateSnapshot, "__init__", lambda *a, **k: pytest.fail("snapshot taken")
        )
        run_ccsm("scme", CCSMConfig(nsteps=self.NSTEPS))
        assert memos and all(memo is None for memo in memos)
        assert len(sent) == 8 * self.NSTEPS
