"""Smoke tests: every shipped example must run to completion.

The examples double as the paper's worked scenarios; running their
``main()`` here keeps them from rotting as the library evolves.  Output is
captured (not asserted line-by-line — the examples' own assertions do the
real checking).
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return module
    finally:
        sys.modules.pop(spec.name, None)


def test_all_examples_discovered():
    assert set(EXAMPLES) >= {
        "quickstart",
        "pcm_style_single_executable",
        "coupled_climate",
        "ensemble_simulation",
        "global_warming_scenarios",
        "multichannel_logging",
        "cross_site_coupling",
    }


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys, tmp_path, short_tmp, monkeypatch):
    monkeypatch.chdir(tmp_path)  # any stray outputs land in tmp
    # ... and their temp dirs in one short enough for a world's sockets
    monkeypatch.setattr(tempfile, "tempdir", str(short_tmp))
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} printed nothing"
    if name == "run_service_sweep":
        # every process job after the first is served by the resident
        # world; a world that cannot start falls back to cold silently
        assert out.count("(resident world)") == len(module.SCENARIOS) - 1, out
