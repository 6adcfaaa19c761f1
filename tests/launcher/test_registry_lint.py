"""The mph-registry lint tool (repro.tools.registry_lint)."""

import pytest

from repro.core.registry import Registry
from repro.errors import ReproError
from repro.tools.registry_lint import describe_registry, main, plan_layout

GOOD = """
BEGIN
Multi_Component_Begin
atm 0 3
lnd 0 3
chm 4 5
Multi_Component_End
coupler fancy=yes
END
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "processors_map.in"
    path.write_text(GOOD)
    return path


class TestCli:
    def test_valid_file_ok(self, good_file, capsys):
        assert main([str(good_file)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "multi-component on 6 procs (overlapping)" in out
        assert "coupler" in out and "fields: fancy=yes" in out

    def test_invalid_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.in"
        bad.write_text("BEGIN\nMulti_Component_Begin\natm 5 2\nMulti_Component_End\nEND\n")
        assert main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err and ":3" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.in")]) == 1

    def test_launch_plan_printed(self, good_file, capsys):
        assert main([str(good_file), "--sizes", "6,2"]) == 0
        out = capsys.readouterr().out
        assert "simulated launch (block, 8 processes)" in out
        assert "id 0  atm" in out
        assert "world ranks 6-7" in out  # the coupler

    def test_launch_plan_size_mismatch(self, good_file, capsys):
        assert main([str(good_file), "--sizes", "4,2"]) == 1
        assert "plan gives it 4" in capsys.readouterr().err

    def test_round_robin_plan(self, good_file, capsys):
        assert main([str(good_file), "--sizes", "6,2", "--rank-policy", "round_robin"]) == 0
        assert "round_robin" in capsys.readouterr().out


class TestPlanLayout:
    def test_layout_matches_runtime_handshake(self):
        """The offline plan resolves the same layout the handshake builds
        at runtime."""
        from repro import components_setup, mph_run

        registry = Registry.from_text(GOOD)
        planned = plan_layout(registry, [6, 2])

        def multi(world, env):
            mph = components_setup(world, "atm", "lnd", "chm", env=env)
            return tuple(
                (c.name, c.comp_id, c.world_ranks) for c in mph.layout.components
            )

        def coupler(world, env):
            mph = components_setup(world, "coupler", env=env)
            return None

        result = mph_run([(multi, 6), (coupler, 2)], registry=registry)
        runtime = result.values()[0]
        offline = tuple((c.name, c.comp_id, c.world_ranks) for c in planned.components)
        assert runtime == offline

    def test_wrong_size_count(self):
        registry = Registry.from_text(GOOD)
        with pytest.raises(ReproError, match="got 1 sizes"):
            plan_layout(registry, [6])

    def test_single_entry_any_size(self):
        registry = Registry.from_text("BEGIN\nsolo\nEND")
        layout = plan_layout(registry, [7])
        assert layout.component("solo").size == 7

    def test_zero_size_rejected(self):
        registry = Registry.from_text("BEGIN\nsolo\nEND")
        with pytest.raises(ReproError, match=">= 1"):
            plan_layout(registry, [0])


class TestDescribe:
    def test_instance_block_description(self):
        reg = Registry.from_text(
            "BEGIN\nMulti_Instance_Begin\nR1 0 0 in1\nR2 1 1 in2\nMulti_Instance_End\nEND"
        )
        text = describe_registry(reg)
        assert "multi-instance on 2 procs" in text
        assert "R1 locals 0..0  in1" in text

    def test_idle_processors_warned(self):
        reg = Registry.from_text(
            "BEGIN\nMulti_Component_Begin\na 0 0\nb 3 3\nMulti_Component_End\nEND"
        )
        assert "warning: local processors [1, 2]" in describe_registry(reg)


class TestReservedPsetNames:
    """Component names must not shadow the sessions layer's built-in
    ``mph://`` process sets."""

    def test_reserved_name_rejected(self, tmp_path, capsys):
        from repro.tools.registry_lint import lint_reserved_names

        bad = tmp_path / "bad.in"
        bad.write_text("BEGIN\nworld\nocean\nEND\n")
        assert main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert "reserved" in err and "mph://world" in err
        problems = lint_reserved_names(Registry.load("BEGIN\nworld\nocean\nEND"))
        assert len(problems) == 1 and "world" in problems[0]

    def test_reserved_name_inside_multi_component_entry(self, tmp_path, capsys):
        bad = tmp_path / "bad.in"
        bad.write_text(
            "BEGIN\nMulti_Component_Begin\natm 0 1\nself 2 3\n"
            "Multi_Component_End\nEND\n"
        )
        assert main([str(bad)]) == 1
        assert "mph://self" in capsys.readouterr().err

    def test_ordinary_names_pass(self, good_file):
        from repro.tools.registry_lint import lint_reserved_names

        assert main([str(good_file)]) == 0
        reg = Registry.load(GOOD)
        assert lint_reserved_names(reg) == []
