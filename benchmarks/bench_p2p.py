"""E6 — inter-component messaging cost (§5.2), against its alternatives.

Three ways to move a field between components, measured head to head:

* MPH name-addressed messages (``mph.send(obj, "ocean", 3)``) — the §5.2
  mechanism; translation through the layout should add only a dictionary
  lookup over raw world-rank sends;
* raw world-communicator sends with hardwired global ranks — the PCM-style
  wiring MPH replaces;
* buffer-mode numpy transfer — the fast path for large fields.

Expected shape: MPH addressing ≈ raw sends (translation is cheap);
buffer mode beats object mode for large arrays; and both beat the
file-coupling baseline by orders of magnitude (see bench_ensemble for the
file numbers).
"""

import numpy as np
import pytest

from repro import components_setup, mph_run

REG = "BEGIN\natm\nocn\nEND"
ROUNDTRIPS = 50


def run_pingpong(
    payload_factory, use_mph_addressing: bool, buffer_mode: bool = False, config=None
):
    def atm(world, env):
        mph = components_setup(world, "atm", env=env)
        payload = payload_factory()
        dest = mph.global_id("ocn", 0)
        for i in range(ROUNDTRIPS):
            if buffer_mode:
                mph.Send(payload, "ocn", 0, tag=1)
                mph.Recv(payload, "ocn", 0, tag=2)
            elif use_mph_addressing:
                mph.send(payload, "ocn", 0, tag=1)
                payload = mph.recv("ocn", 0, tag=2)
            else:
                world.send(payload, dest, tag=1)
                payload = world.recv(source=dest, tag=2)
        return True

    def ocn(world, env):
        mph = components_setup(world, "ocn", env=env)
        src = mph.global_id("atm", 0)
        buf = payload_factory() if buffer_mode else None
        for i in range(ROUNDTRIPS):
            if buffer_mode:
                mph.Recv(buf, "atm", 0, tag=1)
                mph.Send(buf, "atm", 0, tag=2)
            elif use_mph_addressing:
                got = mph.recv("atm", 0, tag=1)
                mph.send(got, "atm", 0, tag=2)
            else:
                got = world.recv(source=src, tag=1)
                world.send(got, src, tag=2)
        return True

    return mph_run([(atm, 1), (ocn, 1)], registry=REG, config=config)


@pytest.mark.parametrize("addressing", ["mph-name", "raw-rank"])
def test_small_message_pingpong(benchmark, addressing):
    """Latency: name-addressed vs hardwired-rank messaging."""

    def run():
        return run_pingpong(lambda: {"step": 1}, addressing == "mph-name")

    benchmark(run)
    benchmark.extra_info.update(roundtrips=ROUNDTRIPS, addressing=addressing)


@pytest.mark.parametrize("nelems", [1_000, 100_000])
@pytest.mark.parametrize("mode", ["object", "buffer"])
def test_field_transfer(benchmark, nelems, mode):
    """Throughput: pickled object mode vs numpy buffer mode."""

    def run():
        return run_pingpong(
            lambda: np.zeros(nelems),
            use_mph_addressing=True,
            buffer_mode=(mode == "buffer"),
        )

    benchmark(run)
    benchmark.extra_info.update(nelems=nelems, mode=mode, roundtrips=ROUNDTRIPS)


def test_recv_any_overhead(benchmark):
    """recv_any adds sender identification on top of a plain receive."""

    def atm(world, env):
        mph = components_setup(world, "atm", env=env)
        for i in range(ROUNDTRIPS):
            mph.send(i, "ocn", 0, tag=3)
        return True

    def ocn(world, env):
        mph = components_setup(world, "ocn", env=env)
        out = 0
        for _ in range(ROUNDTRIPS):
            obj, comp, local = mph.recv_any(tag=3)
            out += obj
        return out

    def run():
        return mph_run([(atm, 1), (ocn, 1)], registry=REG)

    result = benchmark(run)
    assert result.by_executable(1)[0] == sum(range(ROUNDTRIPS))
