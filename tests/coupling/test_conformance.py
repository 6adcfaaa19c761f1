"""The implicit CCSM coupler across execution backends.

CCSM's implicit step is the coupling iteration this repository runs: a
:mod:`repro.coupling` solver on the coupler iterates the flux exchange
with every component to convergence.  Here it runs over §5.1 join
communicators with per-component sub-cycling — the Gauss-Seidel
solver, its ``AbsoluteNorm`` criterion, ``InterfaceSpec`` and the MPH
handle together — on the thread and process backends (CI adds the
process+shm leg via ``--mpi-transport shm``).  Its bitwise and schedule properties are pinned on the default
world by ``tests/climate/test_implicit.py``.

Run with ``--mpi-backend thread|process|both`` to select backends; the
session-scoped leak fixture asserts zero surviving shm segments.
"""

import numpy as np

from repro.climate.ccsm import CCSMConfig, MODEL_KINDS, run_ccsm


class TestSubcycledCCSM:
    def test_implicit_subcycled_exchange(self, backend_config):
        """The CCSM implicit coupler with per-component sub-cycling over
        join communicators — the full stack on every backend."""
        cfg = CCSMConfig(
            shapes={
                "atmosphere": (6, 12),
                "ocean": (5, 8),
                "land": (4, 6),
                "ice": (3, 6),
            },
            procs={kind: 1 for kind in MODEL_KINDS} | {"coupler": 1},
            nsteps=2,
            exchange="join",
            coupling="implicit",
            coupling_tol=1e-8,
            subcycle={"ocean": 2, "atmosphere": 3},
        )
        diags = run_ccsm("scme", cfg, config=backend_config, timeout=120.0)
        coupler = diags["coupler"]
        assert coupler["coupling_solver"] == "gauss_seidel"
        assert coupler["coupling_converged"] == [True, True]
        assert all(i >= 1 for i in coupler["coupling_iterations"])
        assert coupler["max_exchange_residual"] < 1e-10
        for kind in MODEL_KINDS:
            series = np.array(diags[kind]["mean_T"])
            assert len(series) == cfg.nsteps + 1
            assert np.all(series > 150.0) and np.all(series < 350.0)
