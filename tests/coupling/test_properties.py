"""Schedule-independence properties of the coupling loop.

The solvers are plain deterministic numpy and the driver's protocol fixes
every reduction order (gather in rank order, concatenate in declaration
order), so a coupled solve must produce *bitwise identical* interface
vectors no matter how the message schedule interleaves.  These tests
sweep match-schedule seeds (``schedule_sweep`` marker) and compare every
run against the serial iteration, byte for byte.
"""

import numpy as np
import pytest

from repro import components_setup
from repro.coupling import (
    AbsoluteNorm,
    AitkenSolver,
    CouplingDriver,
    GaussSeidelSolver,
    IQNILSSolver,
    InterfaceSpec,
    LinearParticipant,
    Participant,
    serve_participant,
)
from repro.launcher.job import mph_run

REG = "BEGIN\ncoupler\np1\np2\nEND"

N = 6
A1 = 0.55 * np.diag(np.linspace(1.0, 0.3, N))
B1 = np.linspace(-0.5, 1.5, N)
A2 = np.diag(np.linspace(0.95, 0.6, N))
B2 = np.linspace(0.2, 0.3, N)
TOL = 1e-9
N_STEPS = 2


def make_solver(name):
    criterion = AbsoluteNorm(TOL)
    if name == "gauss_seidel":
        return GaussSeidelSolver(criterion, max_iterations=80)
    if name == "aitken":
        return AitkenSolver(criterion, max_iterations=80)
    return IQNILSSolver(criterion, reuse_steps=2, max_iterations=80)


def serial_reference(solver_name):
    def op(x):
        return A2 @ (A1 @ x + B1) + B2

    solver = make_solver(solver_name)
    solver.initialize()
    x0 = np.zeros(N)
    out = []
    for _ in range(N_STEPS):
        solver.initialize_solution_step()
        res = solver.solve_solution_step(x0, op)
        solver.finalize_solution_step()
        out.append(res)
        x0 = res.x
    solver.finalize()
    return out


def coupled_job(solver_name):
    """(coupler, p1 x2, p2 x2) — both participants multi-rank so the
    schedule has real gather/bcast interleavings to permute."""

    def coupler(world, env):
        mph = components_setup(world, "coupler", env=env)
        spec = InterfaceSpec([("u", (N,))])
        driver = CouplingDriver(
            mph,
            make_solver(solver_name),
            [Participant("p1", spec), Participant("p2", spec)],
        )
        driver.initialize()
        results = driver.solve(N_STEPS)
        driver.close()
        return [
            (r.iterations, r.x.tobytes(), tuple(r.residual_norms)) for r in results
        ]

    def p1(world, env):
        mph = components_setup(world, "p1", env=env)
        half = N // 2
        rows = slice(0, half) if mph.local_proc_id() == 0 else slice(half, N)
        return serve_participant(mph, LinearParticipant(A1, B1, rows=rows))

    def p2(world, env):
        mph = components_setup(world, "p2", env=env)
        half = N // 2
        rows = slice(0, half) if mph.local_proc_id() == 0 else slice(half, N)
        return serve_participant(mph, LinearParticipant(A2, B2, rows=rows))

    return [(coupler, 1), (p1, 2), (p2, 2)]


class TestBitwiseScheduleIndependence:
    @pytest.mark.schedule_sweep(5)
    @pytest.mark.parametrize("solver_name", ["gauss_seidel", "aitken", "iqn_ils"])
    def test_coupled_solve_is_bitwise_schedule_independent(
        self, solver_name, sweep_config
    ):
        """5 seeds: every scheduled run must equal the serial iteration
        bit for bit — iterations, residual history, and the final
        interface vector's exact bytes."""
        result = mph_run(
            coupled_job(solver_name), registry=REG, config=sweep_config(), timeout=120.0
        )
        got = result.by_executable(0)[0]
        ref = serial_reference(solver_name)
        for (iters, xbytes, norms), expect in zip(got, ref):
            assert iters == expect.iterations
            assert xbytes == expect.x.tobytes()
            assert norms == tuple(expect.residual_norms)

    @pytest.mark.schedule_sweep(3)
    def test_two_scheduled_runs_identical(self, sweep_config):
        """Within one seed, re-running the job reproduces itself exactly
        (fresh schedule, same seed — the replay property chaos debugging
        relies on)."""
        runs = []
        for _ in range(2):
            result = mph_run(
                coupled_job("iqn_ils"), registry=REG, config=sweep_config(), timeout=120.0
            )
            runs.append(result.by_executable(0)[0])
        assert runs[0] == runs[1]
