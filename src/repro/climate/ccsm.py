"""The assembled toy CCSM: one driver, all five MPH execution modes.

This module wires the component models and the flux coupler into a coupled
system the way the paper's motivating application does, and — the point of
the exercise — assembles *the same physics* under every MPH software
integration mode:

* ``"scme"``  — five single-component executables (paper §2.3/§4.1);
* ``"mcse"``  — one executable containing all five components (§2.2/§4.2);
* ``"mcme"``  — three executables: atmosphere+land, ocean+ice, coupler
  (§2.4/§4.3);
* ``"mcme_overlap"`` — as ``"mcme"`` but atmosphere and land fully
  overlapping on processors (the §4.3 registry's overlap feature);
* ``"scse"``  — a stand-alone single component (no coupling), the
  conventional mode kept "for completeness" (§2.1).

Because the numerics are decomposition-independent and the coupler computes
on assembled global fields in a fixed order, the coupled run produces
**identical answers in every mode** — the experiment E11 check.

The per-step protocol is phase-split so it is deadlock-free even when
several components share processors sequentially (the PCM pattern):
every component first *publishes* its temperature to the coupler (eager
sends), the coupler computes and returns fluxes, then every component
*receives and steps*.

Under ``exchange="p2p"`` a field crosses once in each direction as plain
§5.2 messages addressed by ``(component, local rank)``: every component
rank sends ``((step,), block)`` to the coupler's local processor 0, which
receives them in component-rank order and assembles the field; it cuts
each flux with :meth:`~repro.climate.grid.Decomposition.blocks` and sends
every rank ``((step, code), block)`` back.  Under ``exchange="join"``
the same fields go by a gather and by a scatter of ``(cmd, block)`` over
each component's joint communicator (§5.1).  Either way the coupler runs
one loop — take every temperature, compute on local processor 0, put
every flux — and only the four helpers that take and put a field know
which exchange carries it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from repro.climate.components import (
    AtmosphereModel,
    ComponentModel,
    LandModel,
    OceanModel,
    PhysicsParams,
    SeaIceModel,
)
from repro.climate.coupler import FLUX_TAG_BASE, TEMP_TAG_BASE, FluxCoupler
from repro.climate.grid import Decomposition, LatLonGrid
from repro.core.mph import MPH, components_setup
from repro.core.registry import Registry
from repro.errors import ProcessFailedError, ReproError
from repro.launcher.job import mph_run
from repro.mpi.comm import Comm
from repro.mpi.faults import SimulatedCrash

#: Model component kinds (the coupler is handled separately).
MODEL_KINDS = ("atmosphere", "ocean", "land", "ice")

#: Surface kinds (everything the coupler merges under the atmosphere).
SURFACE_KINDS = ("ocean", "land", "ice")

_MODEL_CLASSES = {
    "atmosphere": AtmosphereModel,
    "ocean": OceanModel,
    "land": LandModel,
    "ice": SeaIceModel,
}

#: The execution modes :func:`run_ccsm` understands.
MODES = ("scse", "scme", "mcse", "mcme", "mcme_overlap")


#: What the coupler tells a component with a flux (a p2p message carries
#: its index here as the code): ``commit`` — advance the step under this
#: flux (every explicit exchange; the converged implicit one); ``iterate``
#: — an implicit trial evaluation from the step-start snapshot;
#: ``dropped`` — a rank of this component died and the coupling goes on
#: without it.
_COMMANDS = ("commit", "iterate", "dropped")


class ComponentCrash(SimulatedCrash):
    """A crash injected by :attr:`CCSMConfig.crash_at` — recoverable
    within the job (checkpoint restore + flux replay), unlike a
    schedule-level :class:`~repro.mpi.faults.SimulatedCrash`, which is a
    fail-stop death of the whole rank."""


@dataclass
class CCSMConfig:
    """Configuration of one coupled experiment.

    ``names`` maps component kinds to registration name-tags — arbitrary,
    exercising the paper's "its actual name is entirely arbitrary" design
    point (one may register the atmosphere as ``NCAR_atm``).
    """

    shapes: dict[str, tuple[int, int]] = field(
        default_factory=lambda: {
            "atmosphere": (16, 32),
            "ocean": (12, 24),
            "land": (8, 16),
            "ice": (6, 12),
        }
    )
    procs: dict[str, int] = field(
        default_factory=lambda: {
            "atmosphere": 4,
            "ocean": 2,
            "land": 2,
            "ice": 1,
            "coupler": 1,
        }
    )
    names: dict[str, str] = field(
        default_factory=lambda: {
            "atmosphere": "atmosphere",
            "ocean": "ocean",
            "land": "land",
            "ice": "ice",
            "coupler": "coupler",
        }
    )
    coupling_coeff: dict[str, float] = field(
        default_factory=lambda: {"ocean": 15.0, "land": 10.0, "ice": 5.0}
    )
    params: dict[str, PhysicsParams] = field(default_factory=dict)
    nsteps: int = 8
    dt: float = 3600.0
    #: Exchange transport: ``"p2p"`` (§5.2 name-addressed messages) or
    #: ``"join"`` (§5.1 collectives over joint communicators).
    exchange: str = "p2p"
    #: Write each component's checkpoint here at the end of the run.
    checkpoint_dir: Optional[str] = None
    #: Start from the checkpoints in this directory instead of the
    #: analytic initial condition (restart is bitwise-exact; see
    #: :mod:`repro.climate.checkpoint`).
    restart_dir: Optional[str] = None
    #: Optional seasonal insolation (see :mod:`repro.climate.forcing`)
    #: applied to every solar-absorbing component.
    forcing: Optional[Any] = None
    #: Optional CO2 scenario applied to every OLR-emitting component.
    co2: Optional[Any] = None
    #: Save each component's checkpoint to ``checkpoint_dir`` every N
    #: completed steps (0 = only at the end).  Enables in-job recovery:
    #: with periodic checkpoints a crashed component is restarted from its
    #: last save and replays the logged coupling fluxes, bitwise-exactly.
    checkpoint_every: int = 0
    #: Inject a crash: ``(kind, step)`` makes that component fail at the
    #: top of ``receive_and_step(step)`` (once).  The driver recovers it
    #: from the last checkpoint and the run continues within the same job.
    crash_at: Optional[tuple[str, int]] = None
    #: Coupling scheme: ``"explicit"`` — one fixed flux exchange per step
    #: (the paper's §2 coupler); ``"implicit"`` — iterate each step's
    #: exchange to interface convergence with a coupled solver from
    #: :mod:`repro.coupling` (fluxes computed from the *converged*
    #: temperatures, the backward-coupled exchange).
    coupling: str = "explicit"
    #: Implicit coupled solver: ``"gauss_seidel"`` | ``"aitken"`` |
    #: ``"iqn_ils"``.
    coupling_solver: str = "gauss_seidel"
    #: Interface-residual 2-norm tolerance of the implicit iteration [K].
    coupling_tol: float = 1e-9
    #: Iteration budget per implicit coupling step.
    max_coupling_iterations: int = 25
    #: Relaxation: Gauss-Seidel ω (in (0, 2]), and the initial ω of
    #: Aitken / IQN-ILS (nonzero).
    coupling_omega: float = 1.0
    #: Predictor seeding each implicit step from prior converged steps:
    #: ``None`` | ``"constant"`` | ``"linear"`` | ``"quadratic"``.
    coupling_predictor: Optional[str] = None
    #: ``kind -> m``: the component advances *m* substeps of ``dt/m`` per
    #: coupling step (sub-cycling — components at different timesteps).
    subcycle: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.exchange not in ("p2p", "join"):
            raise ReproError(f"exchange must be 'p2p' or 'join', got {self.exchange!r}")
        for name in ("nsteps", "checkpoint_every", "max_coupling_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ReproError(f"{name} must be an int, got {value!r}")
        for kind, shape in self.shapes.items():
            if not all(
                isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1
                for n in shape
            ):
                raise ReproError(
                    f"shapes[{kind!r}] must be two ints >= 1, got {shape!r}"
                )
        if self.nsteps < 0:
            raise ReproError(f"nsteps must be >= 0, got {self.nsteps}")
        for kind, coeff in self.coupling_coeff.items():
            if not (isinstance(coeff, numbers.Real) and math.isfinite(coeff)):
                raise ReproError(
                    f"coupling_coeff[{kind!r}] must be a finite number, got {coeff!r}"
                )
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ReproError(f"dt must be finite and positive, got {self.dt}")
        if self.checkpoint_every < 0:
            raise ReproError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.checkpoint_every > 0 and self.checkpoint_dir is None:
            raise ReproError("checkpoint_every needs a checkpoint_dir to write into")
        if self.crash_at is not None:
            if self.checkpoint_every <= 0:
                raise ReproError(
                    "crash_at recovery needs periodic checkpoints; set checkpoint_every"
                )
            if self.exchange != "p2p":
                raise ReproError(
                    "crash_at recovery runs over the p2p exchange (a join-mode retry "
                    "would re-enter collectives the coupler has already completed)"
                )
        if self.coupling not in ("explicit", "implicit"):
            raise ReproError(
                f"coupling must be 'explicit' or 'implicit', got {self.coupling!r}"
            )
        for kind, m in self.subcycle.items():
            if kind not in MODEL_KINDS:
                raise ReproError(f"subcycle: unknown component kind {kind!r}")
            if m < 1:
                raise ReproError(f"subcycle[{kind!r}] must be >= 1, got {m}")
        if self.subcycle and self.checkpoint_every > 0:
            raise ReproError(
                "sub-cycling does not combine with periodic checkpoints (the "
                "model's substep counter and the coupling-step counter differ)"
            )
        if self.coupling == "implicit":
            if self.coupling_solver not in ("gauss_seidel", "aitken", "iqn_ils"):
                raise ReproError(
                    "coupling_solver must be 'gauss_seidel', 'aitken', or "
                    f"'iqn_ils', got {self.coupling_solver!r}"
                )
            if self.coupling_predictor not in (None, "constant", "linear", "quadratic"):
                raise ReproError(
                    f"unknown coupling_predictor {self.coupling_predictor!r}"
                )
            if not (math.isfinite(self.coupling_tol) and self.coupling_tol > 0):
                raise ReproError(
                    f"coupling_tol must be finite and positive, got {self.coupling_tol}"
                )
            omega = self.coupling_omega
            if self.coupling_solver == "gauss_seidel":
                if not (math.isfinite(omega) and 0 < omega <= 2.0):
                    raise ReproError(
                        f"coupling_omega must be finite and in (0, 2] for "
                        f"gauss_seidel, got {omega}"
                    )
            elif not (math.isfinite(omega) and omega != 0.0):
                raise ReproError(
                    f"coupling_omega must be finite and nonzero for "
                    f"{self.coupling_solver}, got {omega}"
                )
            if self.max_coupling_iterations < 1:
                raise ReproError(
                    f"max_coupling_iterations must be >= 1, got "
                    f"{self.max_coupling_iterations}"
                )
            if self.crash_at is not None:
                raise ReproError(
                    "crash_at recovery is explicit-only (an implicit retry would "
                    "re-enter the iteration the coupler already completed)"
                )
            if self.procs.get("coupler", 1) != 1:
                raise ReproError(
                    "implicit coupling needs a single-process coupler "
                    "(the iteration control is serial)"
                )

    # -- accessors -----------------------------------------------------------

    def grid(self, kind: str) -> LatLonGrid:
        """The component's grid."""
        nlat, nlon = self.shapes[kind]
        return LatLonGrid(nlat, nlon, name=kind)

    def name(self, kind: str) -> str:
        """The component's registration name-tag."""
        return self.names[kind]

    def param(self, kind: str) -> PhysicsParams:
        """The component's physics parameters (defaults per kind unless
        overridden)."""
        if kind in self.params:
            return self.params[kind]
        return _MODEL_CLASSES[kind].default_params()

    @classmethod
    def conservation(cls, **overrides) -> "CCSMConfig":
        """A configuration with all external forcing off (no sun, no OLR,
        no diffusion): total energy must then be exactly conserved by the
        coupling exchange — the E11 conservation check."""
        closed = {
            kind: replace(
                _MODEL_CLASSES[kind].default_params(),
                solar_constant=0.0,
                olr_a=0.0,
                olr_b=0.0,
                diffusivity=0.0,
            )
            for kind in MODEL_KINDS
        }
        return cls(params=closed, **overrides)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


class ComponentRunner:
    """One component model plus its half of the coupling protocol."""

    def __init__(self, mph: MPH, cfg: CCSMConfig, kind: str, comm: Comm):
        self.mph = mph
        self.cfg = cfg
        self.kind = kind
        self.comm = comm
        self.name = cfg.name(kind)
        self.coupler_name = cfg.name("coupler")
        self.comp_id = mph.layout.component(self.name).comp_id
        self.model: ComponentModel = _MODEL_CLASSES[kind](
            comm, cfg.grid(kind), cfg.param(kind), forcing=cfg.forcing, co2=cfg.co2
        )
        if cfg.restart_dir is not None:
            from repro.climate import checkpoint

            checkpoint.restore(self.model, cfg.restart_dir, self.name)
        # Histories carry the initial state at index 0 and one entry per
        # settled step after it (length ``nsteps + 1`` once the run has
        # settled), so energy drift can be audited against the step budgets.
        self.mean_T: list[float] = [self.model.mean_temperature()]
        self.mean_thickness: list[float] = (
            [self.model.mean_thickness()] if isinstance(self.model, SeaIceModel) else []
        )
        #: Coupling steps this runner has advanced its model through.
        self.steps = 0
        #: Stand-alone detection (paper §2.3: "there are flags to detect if
        #: the executable is running in a stand-alone mode or in a joint
        #: multi-executable environment") — here, the absence of a
        #: registered coupler switches coupling off.
        self.standalone = not mph.layout.has_component(self.coupler_name)
        self._join: Optional[Comm] = None
        if cfg.exchange == "join" and not self.standalone:
            # Component processors ranked first, coupler's second (§5.1).
            self._join = mph.comm_join(self.name, self.coupler_name)
            assert self._join is not None
            self._cpl_root = mph.layout.component(self.name).size
        #: Local coupling fluxes since the last checkpoint, for replay
        #: after an in-job recovery (``(step, local_flux)`` per entry).
        self._flux_log: list[tuple[int, Optional[np.ndarray]]] = []
        self._crash_pending = cfg.crash_at is not None and cfg.crash_at[0] == kind
        if cfg.checkpoint_every > 0:
            # The initial save covers a crash before the first periodic one.
            self.checkpoint()

    def publish(self, step: int) -> None:
        """Phase 1: hand this rank's temperature block to the coupler (a
        no-op when running stand-alone)."""
        if self.standalone:
            return
        block = self.model.temperature.data
        if self._join is not None:
            self._join.gather(block, root=self._cpl_root)
        else:
            tag = TEMP_TAG_BASE + self.comp_id
            self.mph.send(((step,), block), self.coupler_name, 0, tag)

    def receive_and_step(self, step: int) -> None:
        """Phase 2: receive the coupling flux and advance one step (zero
        flux when running stand-alone).

        Under implicit coupling this phase is a command loop instead: the
        coupler sends ``("iterate", flux)`` trial exchanges, each evaluated
        from the step-start snapshot, until it converges and sends
        ``("commit", flux)``.
        """
        if self.cfg.coupling == "implicit" and not self.standalone:
            self._iterate_and_step(step)
            return
        if self._crash_pending and self.cfg.crash_at == (self.kind, step):
            self._crash_pending = False  # fire once; the retry proceeds
            raise ComponentCrash(
                f"injected crash of component {self.name!r} at step {step}"
            )
        if self.standalone:
            local_flux = None
        else:
            _, local_flux = self._receive_command(step)
        self._advance(step, local_flux)
        self._checkpoint_if_due()

    def _iterate_and_step(self, step: int) -> None:
        """The implicit command loop: trial-evaluate from the step-start
        snapshot until the coupler commits the converged exchange."""
        snapshot = self.model.state_snapshot()
        while True:
            cmd, local_flux = self._receive_command(step)
            self.model.state_restore(snapshot)
            if cmd == "iterate":
                self._substep(self.model.advance_state, local_flux)
                self.publish(step)
            elif cmd == "commit":
                self._advance(step, local_flux)
                self._checkpoint_if_due()
                return
            else:
                raise ReproError(f"{self.name}: unknown coupling command {cmd!r}")

    def _checkpoint_if_due(self) -> None:
        """Save the periodic checkpoint when a completed step calls for one."""
        every = self.cfg.checkpoint_every
        if every > 0 and self.model.steps_taken % every == 0:
            self.checkpoint()
            # Fluxes up to the saved step are baked into the checkpoint.
            self._flux_log = [e for e in self._flux_log if e[0] >= self.model.steps_taken]

    def checkpoint(self) -> None:
        """Settle the histories, then save this component's checkpoint to
        ``checkpoint_dir`` (collective over the component).  Nothing is
        left unsettled at a save, so :meth:`recover` takes back only the
        steps it replays."""
        from repro.climate import checkpoint

        self.settle()
        checkpoint.save(self.model, self.cfg.checkpoint_dir, self.name)

    def settle(self) -> None:
        """Book every step the model has settled since the last call into
        the histories (collective over the component; see
        :meth:`ComponentModel.settle`).  A sub-cycled component settles
        *m* substeps a coupling step and books the last of them."""
        m = self.cfg.subcycle.get(self.kind, 1)
        for diag in self.model.settle()[m - 1 :: m]:
            self.mean_T.append(diag.mean_temperature)
            if diag.mean_thickness is not None:
                self.mean_thickness.append(diag.mean_thickness)

    def _receive_command(self, step: int) -> tuple[str, np.ndarray]:
        """One coupler command plus this rank's flux block.  The command
        rides with the data instead of costing a message of its own: a
        scatter of ``(cmd, block)`` over the joint communicator, or the
        message ``((step, code), block)`` from the coupler."""
        if self._join is not None:
            cmd, local_flux = self._join.scatter(None, root=self._cpl_root)
            got_step = step  # a collective cannot arrive out of step
        else:
            tag = FLUX_TAG_BASE + self.comp_id
            (got_step, code), local_flux = self.mph.recv(self.coupler_name, 0, tag)
            cmd = _COMMANDS[code]
        if cmd == "dropped":
            raise ProcessFailedError(
                f"{self.name}: dropped from the coupling at step {got_step} "
                "after a rank of this component died"
            )
        if got_step != step:
            raise ReproError(
                f"{self.name}: coupling protocol out of step "
                f"(expected {step}, got {got_step})"
            )
        return cmd, local_flux

    def _substep(self, advance, local_flux: Optional[np.ndarray]) -> None:
        """Advance one coupling step's worth of model time: *m* substeps
        of ``dt/m`` under the same coupling flux (sub-cycling).

        *advance* is the model's ``step``, or its ``advance_state`` for a
        trial step whose diagnostics nobody will read."""
        m = self.cfg.subcycle.get(self.kind, 1)
        sub_dt = self.cfg.dt / m
        for _ in range(m):
            advance(sub_dt, local_flux)

    def _advance(self, step: int, local_flux: Optional[np.ndarray]) -> None:
        """Apply one step's flux and log it for replay.  The step's
        diagnostics wait on the model's ledger for the next
        :meth:`settle`."""
        if self.cfg.checkpoint_every > 0:
            self._flux_log.append(
                (step, None if local_flux is None else np.array(local_flux))
            )
        self._substep(self.model.step, local_flux)
        self.steps += 1

    def recover(self) -> int:
        """Restart this component from its last checkpoint, within the job.

        Collective over the component communicator.  Restores the model
        state (bitwise) — the histories were settled at that save, and
        what the model recorded since is dropped with the rest of its
        state — then replays the logged coupling fluxes of steps
        ``k..crash-1``; deterministic physics makes the replayed
        trajectory identical to the lost one.  Returns *k*.
        """
        from repro.climate import checkpoint

        k = checkpoint.restore(self.model, self.cfg.checkpoint_dir, self.name)
        replay = [e for e in self._flux_log if e[0] >= k]
        self._flux_log = []
        self.steps -= len(replay)
        for s, flux in replay:
            self._advance(s, flux)
        return k

    def diagnostics(self) -> dict[str, Any]:
        """Per-component diagnostics (identical on every component rank
        except ``final_field``, populated on component-local rank 0).

        An output point: the histories and ``budget`` are settled here
        first.  If a sibling rank died, the settle cannot complete and
        they end at the last settle that did; ``steps`` still counts
        every coupling step this rank advanced."""
        try:
            self.settle()
        except ProcessFailedError:
            pass  # a sibling rank died; the histories end at the last settle
        try:
            final_field = self.model.temperature.gather_global(root=0)
        except ProcessFailedError:
            final_field = None  # a sibling rank died; no assembled field
        out: dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "size": self.comm.size,
            "steps": self.steps,
            "mean_T": list(self.mean_T),
            # Heat content ``C * <T>``, as ComponentModel.energy computes it.
            "energy": [self.model.params.heat_capacity * t for t in self.mean_T],
            "budget": {
                "solar_in": self.model.budget.solar_in,
                "olr_out": self.model.budget.olr_out,
                "coupling_in": self.model.budget.coupling_in,
                "diffusion_residual": self.model.budget.diffusion_residual,
            },
            "final_field": final_field,
        }
        if self.mean_thickness:
            out["mean_thickness"] = list(self.mean_thickness)
        return out


class CouplerRunner:
    """The coupler component: collect, compute, redistribute."""

    def __init__(self, mph: MPH, cfg: CCSMConfig, comm: Comm):
        self.mph = mph
        self.cfg = cfg
        self.comm = comm
        self.name = cfg.name("coupler")
        self.active_kinds = [k for k in MODEL_KINDS if mph.layout.has_component(cfg.name(k))]
        surfaces = [k for k in self.active_kinds if k != "atmosphere"]
        if "atmosphere" not in self.active_kinds or not surfaces:
            raise ReproError(
                "the coupler needs an atmosphere and at least one surface component; "
                f"active: {self.active_kinds}"
            )
        self.engine = FluxCoupler(
            cfg.grid("atmosphere"),
            {k: cfg.grid(k) for k in surfaces},
            {k: cfg.coupling_coeff[k] for k in surfaces},
        )
        #: Surface components observed dead and dropped from the coupling,
        #: in detection order (the atmosphere dying is not survivable).
        self.dropped_components: list[str] = []
        #: ``kind -> joint communicator`` under ``exchange="join"``; empty
        #: under p2p, which meets every component on local processor 0.
        self._joins: dict[str, Comm] = {}
        if cfg.exchange == "join":
            for kind in self.active_kinds:
                join = mph.comm_join(cfg.name(kind), self.name)
                assert join is not None
                self._joins[kind] = join
        self._implicit = cfg.coupling == "implicit"
        if self._implicit:
            self._build_implicit()

    def _build_implicit(self) -> None:
        """Assemble the coupled solver, criterion, and predictor that
        iterate each step's exchange (see :mod:`repro.coupling`)."""
        from repro.coupling import (
            AbsoluteNorm,
            AitkenSolver,
            GaussSeidelSolver,
            InterfaceSpec,
            IQNILSSolver,
            Predictor,
        )

        cfg = self.cfg
        #: The iterate: every active component's temperature field, packed.
        self._spec = InterfaceSpec([(k, cfg.shapes[k]) for k in self.active_kinds])
        solver_cls = {
            "gauss_seidel": GaussSeidelSolver,
            "aitken": AitkenSolver,
            "iqn_ils": IQNILSSolver,
        }[cfg.coupling_solver]
        # The second argument is Gauss-Seidel's ω, Aitken's / IQN-ILS's initial ω.
        self._solver = solver_cls(
            AbsoluteNorm(cfg.coupling_tol),
            cfg.coupling_omega,
            max_iterations=cfg.max_coupling_iterations,
        )
        order = {"constant": 0, "linear": 1, "quadratic": 2}.get(cfg.coupling_predictor)
        self._predictor = None if order is None else Predictor(order)
        #: Iterations and convergence flag of every implicit step.
        self.coupling_iterations: list[int] = []
        self.coupling_converged: list[bool] = []

    def _drop(self, kind: str, step: int) -> None:
        """Degrade the coupling after a process of surface *kind* died,
        and tell the component's surviving ranks, which would otherwise
        wait for a flux that is never computed."""
        self.active_kinds.remove(kind)
        self.engine.drop_surface(kind)
        self.dropped_components.append(kind)
        try:
            self._put_flux(kind, step, "dropped", np.zeros(self.cfg.shapes[kind]))
        except ProcessFailedError:
            pass  # the dead ranks; every live one has its notice

    def _comp_size(self, kind: str) -> int:
        return self.mph.layout.component(self.cfg.name(kind)).size

    def _blocks(self, kind: str, full: np.ndarray) -> list[np.ndarray]:
        """A full field of component *kind*, cut into its ranks' blocks."""
        return Decomposition(self.cfg.grid(kind), self._comp_size(kind)).blocks(full)

    def _take_temperature(self, kind: str, step: int) -> Optional[np.ndarray]:
        """Component *kind*'s published temperature, assembled from its
        ranks' blocks on local processor 0 (``None`` on the others)."""
        name, size = self.cfg.name(kind), self._comp_size(kind)
        if self._joins:
            blocks = self._joins[kind].gather(None, root=size)
            return None if blocks is None else np.concatenate(blocks[:size], axis=0)
        if self.comm.rank != 0:
            return None
        tag = TEMP_TAG_BASE + self.mph.layout.component(name).comp_id
        blocks = []
        for rank in range(size):
            (got_step,), block = self.mph.recv(name, rank, tag)
            if got_step != step:
                raise ReproError(
                    f"coupler protocol out of step: expected ({name}, {step}), got "
                    f"({name}, {got_step})"
                )
            blocks.append(block)
        return np.concatenate(blocks, axis=0)

    def _put_flux(self, kind: str, step: int, cmd: str, flux: Optional[np.ndarray]) -> None:
        """*cmd* and its own block of *flux* to every rank of component
        *kind* (*flux* is read on local processor 0 only).  A dead rank
        does not keep the live ones from their blocks: every rank is
        served, then the first :class:`~repro.errors.ProcessFailedError`
        is raised."""
        if self._joins:
            join, root = self._joins[kind], self._comp_size(kind)
            pieces = None
            if join.rank == root:
                pieces = [(cmd, b) for b in self._blocks(kind, flux)] + [None] * self.comm.size
            join.scatter(pieces, root=root)
            return
        if self.comm.rank != 0:
            return
        name = self.cfg.name(kind)
        tag = FLUX_TAG_BASE + self.mph.layout.component(name).comp_id
        header = (step, _COMMANDS.index(cmd))
        failure: Optional[ProcessFailedError] = None
        for rank, block in enumerate(self._blocks(kind, flux)):
            try:
                self.mph.send((header, block), name, rank, tag)
            except ProcessFailedError as exc:
                failure = failure or exc
        if failure is not None:
            raise failure

    def step(self, step: int) -> None:
        """One coupling step (between the components' two phases)."""
        if self._implicit:
            self._step_implicit(step)
        else:
            self._step_explicit(step)

    def _step_explicit(self, step: int) -> None:
        """Take every temperature, compute the fluxes on local processor
        0, put every flux back — over either exchange."""
        temps: dict[str, Optional[np.ndarray]] = {}
        for kind in list(self.active_kinds):
            try:
                temps[kind] = self._take_temperature(kind, step)
            except ProcessFailedError:
                # A dead surface degrades the coupling; a dead atmosphere
                # has nothing left to couple — let the failure propagate.
                if kind == "atmosphere":
                    raise
                self._drop(kind, step)
        if self.comm.rank == 0:
            fluxes = self._fluxes_of(temps, record=True)
        else:
            fluxes = dict.fromkeys(temps)
        for kind in list(self.active_kinds):
            try:
                self._put_flux(kind, step, "commit", fluxes[kind])
            except ProcessFailedError:
                if kind == "atmosphere":
                    raise
                self._drop(kind, step)

    # -- implicit coupling ------------------------------------------------------

    def _step_implicit(self, step: int) -> None:
        """Iterate this step's exchange to interface convergence.

        The fixed-point unknown is the packed vector of every component's
        temperature *after* the step; each solver iteration computes trial
        fluxes from the current iterate, has every component re-advance
        from its step-start snapshot under them, and collects the resulting
        temperatures.  On convergence the committed fluxes are the ones
        computed from the converged temperatures — the backward-coupled
        exchange the explicit coupler only approximates.
        """
        x = self._spec.pack(self._collect_temps(step))  # step-start state
        self._solver.initialize_solution_step()
        if self._predictor is not None:
            guess = self._predictor.predict()
            if guess is not None:
                x = guess

        def operate(xk: np.ndarray) -> np.ndarray:
            fluxes = self._fluxes_of(self._spec.unpack(xk), record=False)
            self._send_command(step, "iterate", fluxes)
            return self._spec.pack(self._collect_temps(step))

        result = self._solver.solve_solution_step(x, operate)
        fluxes = self._fluxes_of(self._spec.unpack(result.x), record=True)
        self._send_command(step, "commit", fluxes)
        if self._predictor is not None:
            self._predictor.update(result.x)
        self._solver.finalize_solution_step()
        self.coupling_iterations.append(result.iterations)
        self.coupling_converged.append(result.converged)

    def _collect_temps(self, step: int) -> dict[str, Optional[np.ndarray]]:
        """Every component's published temperature (on local processor 0)."""
        return {kind: self._take_temperature(kind, step) for kind in self.active_kinds}

    def _fluxes_of(
        self, temps: dict[str, np.ndarray], record: bool
    ) -> dict[str, np.ndarray]:
        atm_flux, sfc_fluxes = self.engine.compute_fluxes(
            temps["atmosphere"],
            {k: v for k, v in temps.items() if k != "atmosphere"},
            record=record,
        )
        out = {"atmosphere": atm_flux}
        out.update(sfc_fluxes)
        return out

    def _send_command(
        self, step: int, cmd: str, fluxes: dict[str, np.ndarray]
    ) -> None:
        """Hand every component a command plus its flux."""
        for kind in self.active_kinds:
            self._put_flux(kind, step, cmd, fluxes[kind])

    def diagnostics(self) -> dict[str, Any]:
        """Coupler-side diagnostics: the exchange-balance audit."""
        out = {
            "kind": "coupler",
            "name": self.name,
            "size": self.comm.size,
            "exchange_residual": list(self.engine.exchange_residual),
            "max_exchange_residual": self.engine.max_residual(),
            "dropped_components": list(self.dropped_components),
        }
        if self._implicit:
            out["coupling_solver"] = self.cfg.coupling_solver
            out["coupling_iterations"] = list(self.coupling_iterations)
            out["coupling_converged"] = list(self.coupling_converged)
        return out


# ---------------------------------------------------------------------------
# programs and mode assembly
# ---------------------------------------------------------------------------


def _drive(mph: MPH, cfg: CCSMConfig, kinds: tuple[str, ...]) -> dict[str, Any]:
    """Run the coupled loop for the components this process hosts."""
    runners: list[ComponentRunner] = []
    coupler: Optional[CouplerRunner] = None
    for kind in kinds:
        comm = mph.proc_in_component(cfg.name(kind))
        if comm is None:
            continue
        if kind == "coupler":
            coupler = CouplerRunner(mph, cfg, comm)
        else:
            runners.append(ComponentRunner(mph, cfg, kind, comm))
    runners.sort(key=lambda r: r.comp_id)

    degraded: Optional[str] = None
    for step in range(cfg.nsteps):
        try:
            for r in runners:
                r.publish(step)
            if coupler is not None:
                coupler.step(step)
            for r in runners:
                try:
                    r.receive_and_step(step)
                except ComponentCrash:
                    # In-job component restart: restore the last checkpoint,
                    # replay the logged fluxes, then redo this step — its flux
                    # message is still queued (the coupler sends eagerly).
                    r.recover()
                    r.receive_and_step(step)
        except ProcessFailedError as exc:
            # A communication partner this process cannot do without died
            # (a sibling rank of one of its components, or the coupler):
            # stop cleanly with the histories produced so far instead of
            # stalling or aborting the survivors.
            degraded = str(exc)
            break

    if cfg.checkpoint_dir is not None:
        for r in runners:
            try:
                r.checkpoint()
            except ProcessFailedError:
                continue  # a dead sibling rank; no consistent state to save

    out: dict[str, Any] = {r.kind: r.diagnostics() for r in runners}
    if coupler is not None:
        out["coupler"] = coupler.diagnostics()
    if degraded is not None:
        for diag in out.values():
            diag["degraded"] = degraded
    return out


def _program(cfg: CCSMConfig, kinds: tuple[str, ...]):
    """An executable hosting the given component kinds."""

    def program(world, env):
        names = [cfg.name(k) for k in kinds]
        mph = components_setup(world, *names, env=env)
        return _drive(mph, cfg, kinds)

    program.__name__ = "_".join(k[:3] for k in kinds)
    return program


def build_registry(cfg: CCSMConfig, mode: str) -> Registry:
    """The registration file for *mode* (the paper's §4 examples,
    parameterised)."""
    n = cfg.procs
    name = cfg.name
    if mode in ("scse", "scme"):
        kinds = ("atmosphere",) if mode == "scse" else MODEL_KINDS + ("coupler",)
        body = "\n".join(name(k) for k in kinds)
        return Registry.from_text(f"BEGIN\n{body}\nEND\n")
    if mode == "mcse":
        lines, offset = [], 0
        for k in MODEL_KINDS + ("coupler",):
            lines.append(f"{name(k)} {offset} {offset + n[k] - 1}")
            offset += n[k]
        body = "\n".join(lines)
        return Registry.from_text(
            f"BEGIN\nMulti_Component_Begin\n{body}\nMulti_Component_End\nEND\n"
        )
    if mode == "mcme":
        na, nl, no, ni = n["atmosphere"], n["land"], n["ocean"], n["ice"]
        return Registry.from_text(
            "BEGIN\n"
            "Multi_Component_Begin\n"
            f"{name('atmosphere')} 0 {na - 1}\n"
            f"{name('land')} {na} {na + nl - 1}\n"
            "Multi_Component_End\n"
            "Multi_Component_Begin\n"
            f"{name('ocean')} 0 {no - 1}\n"
            f"{name('ice')} {no} {no + ni - 1}\n"
            "Multi_Component_End\n"
            f"{name('coupler')}\n"
            "END\n"
        )
    if mode == "mcme_overlap":
        na, no, ni = n["atmosphere"], n["ocean"], n["ice"]
        if n["land"] != na:
            raise ReproError(
                "mcme_overlap fully overlaps land with atmosphere; set "
                "procs['land'] == procs['atmosphere']"
            )
        return Registry.from_text(
            "BEGIN\n"
            "Multi_Component_Begin\n"
            f"{name('atmosphere')} 0 {na - 1}\n"
            f"{name('land')} 0 {na - 1}\n"
            "Multi_Component_End\n"
            "Multi_Component_Begin\n"
            f"{name('ocean')} 0 {no - 1}\n"
            f"{name('ice')} {no} {no + ni - 1}\n"
            "Multi_Component_End\n"
            f"{name('coupler')}\n"
            "END\n"
        )
    raise ReproError(f"unknown mode {mode!r}; expected one of {MODES}")


def build_executables(cfg: CCSMConfig, mode: str) -> list[tuple]:
    """The ``(program, nprocs)`` list for *mode*."""
    n = cfg.procs
    if mode == "scse":
        return [(_program(cfg, ("atmosphere",)), n["atmosphere"])]
    if mode == "scme":
        return [(_program(cfg, (k,)), n[k]) for k in MODEL_KINDS + ("coupler",)]
    if mode == "mcse":
        total = sum(n[k] for k in MODEL_KINDS + ("coupler",))
        return [(_program(cfg, MODEL_KINDS + ("coupler",)), total)]
    if mode == "mcme":
        return [
            (_program(cfg, ("atmosphere", "land")), n["atmosphere"] + n["land"]),
            (_program(cfg, ("ocean", "ice")), n["ocean"] + n["ice"]),
            (_program(cfg, ("coupler",)), n["coupler"]),
        ]
    if mode == "mcme_overlap":
        return [
            (_program(cfg, ("atmosphere", "land")), n["atmosphere"]),
            (_program(cfg, ("ocean", "ice")), n["ocean"] + n["ice"]),
            (_program(cfg, ("coupler",)), n["coupler"]),
        ]
    raise ReproError(f"unknown mode {mode!r}; expected one of {MODES}")


def run_ccsm(mode: str, cfg: Optional[CCSMConfig] = None, **job_kwargs) -> dict[str, Any]:
    """Run the coupled system in one execution mode.

    Returns ``kind -> diagnostics`` assembled across executables, with
    ``final_field`` taken from each component's local processor 0.

    >>> diags = run_ccsm("scme", CCSMConfig(nsteps=2))
    >>> sorted(diags)
    ['atmosphere', 'coupler', 'ice', 'land', 'ocean']
    """
    cfg = cfg or CCSMConfig()
    if cfg.coupling == "implicit" and mode == "mcme_overlap":
        raise ReproError(
            "implicit coupling needs each process to host at most one component; "
            "mcme_overlap time-shares atmosphere and land on the same processors"
        )
    if mode == "scse":
        # Stand-alone component: no coupler, pure single-component run.
        cfg = replace(cfg)  # do not mutate the caller's config
    registry = build_registry(cfg, mode)
    executables = build_executables(cfg, mode)
    result = mph_run(executables, registry=registry, **job_kwargs)

    out: dict[str, Any] = {}
    for proc in result.procs:
        if not isinstance(proc.value, dict):
            continue
        for kind, diag in proc.value.items():
            keep = out.get(kind)
            if keep is None or (
                diag.get("final_field") is not None and keep.get("final_field") is None
            ):
                out[kind] = diag
    return out


def total_energy_series(diags: dict[str, Any]) -> np.ndarray:
    """Total heat content per step, summed over the model components —
    constant under :meth:`CCSMConfig.conservation` physics."""
    series = [np.asarray(d["energy"]) for k, d in diags.items() if k in MODEL_KINDS]
    if not series:
        raise ReproError("no model components in diagnostics")
    return np.sum(series, axis=0)
