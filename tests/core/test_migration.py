"""E15: dynamic component processor reallocation (paper §9, future work b)."""

import numpy as np
import pytest

from repro import components_setup, mph_run
from repro.core.migration import block_rows, migrate, redistribute_block
from repro.errors import HandshakeError

OLD_REG = """
BEGIN
Multi_Component_Begin
atm 0 3
lnd 4 5
Multi_Component_End
cpl
END
"""

# After migration: land grows from 2 to 3 processors at atm's expense.
NEW_REG = """
BEGIN
Multi_Component_Begin
atm 0 2
lnd 3 5
Multi_Component_End
cpl
END
"""


class TestBlockRows:
    def test_even_split(self):
        assert [block_rows(8, 4, r) for r in range(4)] == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_to_leading_ranks(self):
        assert [block_rows(10, 3, r) for r in range(3)] == [(0, 4), (4, 7), (7, 10)]

    def test_covers_everything(self):
        for n, p in [(7, 2), (13, 5), (4, 4)]:
            spans = [block_rows(n, p, r) for r in range(p)]
            assert spans[0][0] == 0 and spans[-1][1] == n
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b == c


class TestMigrate:
    def test_rehandshake_moves_processors(self):
        def multi(world, env):
            mph = components_setup(world, "atm", "lnd", env=env)
            before = mph.comp_names()
            new = migrate(mph, NEW_REG)
            return (before, new.comp_names())

        def cpl(world, env):
            mph = components_setup(world, "cpl", env=env)
            new = migrate(mph, NEW_REG)
            return (mph.comp_names(), new.comp_names())

        result = mph_run([(multi, 6), (cpl, 1)], registry=OLD_REG)
        values = result.by_executable(0)
        # executable-local proc 3 moves from atm to lnd
        assert values[3] == (("atm",), ("lnd",))
        # proc 0 stays in atm
        assert values[0] == (("atm",), ("atm",))

    def test_component_set_must_be_preserved(self):
        bad = """
BEGIN
Multi_Component_Begin
atm 0 5
Multi_Component_End
cpl
END
"""

        def multi(world, env):
            mph = components_setup(world, "atm", "lnd", env=env)
            migrate(mph, bad)

        def cpl(world, env):
            mph = components_setup(world, "cpl", env=env)
            migrate(mph, bad)

        with pytest.raises(HandshakeError):
            mph_run([(multi, 6), (cpl, 1)], registry=OLD_REG)

    def test_data_redistribution(self):
        """A block-decomposed field survives the migration intact."""
        n_rows = 12

        def multi(world, env):
            mph = components_setup(world, "atm", "lnd", env=env)
            block = None
            if mph.in_component("atm"):
                comm = mph.component_comm("atm")
                start, stop = block_rows(n_rows, comm.size, comm.rank)
                block = np.arange(start, stop, dtype=float)[:, None] * np.ones(3)
            new = migrate(mph, NEW_REG)
            new_block = redistribute_block(mph, new, "atm", block, n_rows)
            if new.in_component("atm"):
                return new_block[:, 0].tolist()
            return None

        def cpl(world, env):
            mph = components_setup(world, "cpl", env=env)
            migrate(mph, NEW_REG)
            return None

        result = mph_run([(multi, 6), (cpl, 1)], registry=OLD_REG)
        values = result.by_executable(0)
        # new atm = 3 procs, 12 rows -> 4 rows each, contents preserved
        assert values[0] == [0.0, 1.0, 2.0, 3.0]
        assert values[1] == [4.0, 5.0, 6.0, 7.0]
        assert values[2] == [8.0, 9.0, 10.0, 11.0]
        assert values[3] is None  # proc 3 now runs lnd

    def test_new_handle_fully_functional(self):
        """Post-migration communicators work for collectives and messaging."""

        def multi(world, env):
            mph = components_setup(world, "atm", "lnd", env=env)
            new = migrate(mph, NEW_REG)
            name = new.comp_name()
            total = new.component_comm().allreduce(1)
            if name == "lnd" and new.local_proc_id() == 0:
                new.send("lnd ready", "cpl", 0, tag=5)
            return (name, total)

        def cpl(world, env):
            mph = components_setup(world, "cpl", env=env)
            new = migrate(mph, NEW_REG)
            return new.recv("lnd", 0, tag=5)

        result = mph_run([(multi, 6), (cpl, 1)], registry=OLD_REG)
        assert result.by_executable(0)[0] == ("atm", 3)
        assert result.by_executable(0)[5] == ("lnd", 3)
        assert result.by_executable(1)[0] == "lnd ready"

    def test_profile_survives_migration(self):
        """Messages sent before the migration stay on the new handle's
        profile, as they do across ``shrink_world``."""

        def multi(world, env):
            mph = components_setup(world, "atm", "lnd", env=env)
            if mph.global_proc_id() == 0:
                mph.send("before", "cpl", 0, tag=4)
            new = migrate(mph, NEW_REG)
            if new.in_component("lnd") and new.local_proc_id("lnd") == 0:
                new.send("after", "cpl", 0, tag=4)
            return new.profile.sent

        def cpl(world, env):
            mph = components_setup(world, "cpl", env=env)
            mph.recv("atm", 0, tag=4)
            new = migrate(mph, NEW_REG)
            new.recv("lnd", 0, tag=4)
            return new.profile.received

        result = mph_run([(multi, 6), (cpl, 1)], registry=OLD_REG)
        multi_sent = result.by_executable(0)
        assert multi_sent[0] == {"cpl": 1}
        assert multi_sent[3] == {"cpl": 1}  # new lnd's first process
        assert multi_sent[1] == {}
        assert result.by_executable(1)[0] == {"atm": 1, "lnd": 1}
