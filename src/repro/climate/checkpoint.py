"""Checkpoint/restart for component models.

Long climate integrations run as chains of restarted jobs; a coupled
system is only trustworthy if a restart is *exact* — the chained run must
reproduce the uninterrupted run bitwise.  This module provides that for
the toy CCSM: each component's local processor 0 writes one checkpoint
file (full prognostic fields + step counter + energy-budget accumulators),
and restart redistributes the state across however many processes the new
job uses (decomposition independence makes cross-proc-count restart exact
too).

Files are ``.npz`` — self-describing numpy archives, no pickle on the
restart path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.climate.components import ComponentModel, SeaIceModel
from repro.climate.fields import gather_rows
from repro.errors import ReproError

#: Format version written into every checkpoint.
FORMAT_VERSION = 1


def state_of(model: ComponentModel) -> dict:
    """Collect a component's full state on its local processor 0.

    Collective over the component communicator; returns the state dict on
    local rank 0 and ``None`` elsewhere.  Settles the model's recorded
    steps first, so the saved budget is every step's and nothing is left
    on the ledger; their diagnostics stay with the model for its next
    :meth:`~repro.climate.components.ComponentModel.settle`.
    """
    model._settle_ledger()
    full = model.temperature.gather_global(root=0)
    state = None
    if model.comm.rank == 0:
        state = {
            "version": np.int64(FORMAT_VERSION),
            "kind": model.kind,
            "nlat": np.int64(model.grid.nlat),
            "nlon": np.int64(model.grid.nlon),
            "steps_taken": np.int64(model.steps_taken),
            "current_time": np.float64(model.current_time),
            "temperature": full,
            "budget": np.array(
                [
                    model.budget.solar_in,
                    model.budget.olr_out,
                    model.budget.coupling_in,
                    model.budget.diffusion_residual,
                ]
            ),
        }
    if isinstance(model, SeaIceModel):
        # The full field, so a checkpoint restores on any number of bands.
        thickness = gather_rows(model.comm, model.thickness, root=0)
        if model.comm.rank == 0:
            state["thickness"] = thickness
    return state


def save(model: ComponentModel, directory: Union[str, Path], name: str) -> Path:
    """Write the component's checkpoint (collective; local rank 0 writes).

    Returns the checkpoint path (on every rank, for convenience).
    """
    directory = Path(directory)
    path = directory / f"{name}.ckpt.npz"
    state = state_of(model)
    if model.comm.rank == 0:
        directory.mkdir(parents=True, exist_ok=True)
        kind = state.pop("kind")
        np.savez(path, kind=np.bytes_(kind.encode()), **state)
    model.comm.barrier()  # nobody proceeds until the file is on disk
    return path


def restore(model: ComponentModel, directory: Union[str, Path], name: str) -> int:
    """Load a checkpoint into *model* (collective); returns the restored
    step counter.

    Raises
    ------
    ReproError
        On a missing file, wrong grid shape, or component-kind mismatch —
        the usual ways a restart chain goes wrong.
    """
    directory = Path(directory)
    path = directory / f"{name}.ckpt.npz"
    payload = None
    if model.comm.rank == 0:
        if not path.exists():
            raise ReproError(f"no checkpoint {path.name} in {directory}")
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        version = int(payload["version"])
        if version != FORMAT_VERSION:
            raise ReproError(
                f"checkpoint {path.name} has format version {version}; this build "
                f"reads version {FORMAT_VERSION}"
            )
        kind = bytes(payload["kind"]).decode()
        if kind != model.kind:
            raise ReproError(
                f"checkpoint {path.name} holds a {kind!r} component, not {model.kind!r}"
            )
        shape = (int(payload["nlat"]), int(payload["nlon"]))
        if shape != model.grid.shape:
            raise ReproError(
                f"checkpoint grid {shape} != model grid {model.grid.shape}"
            )
    payload = model.comm.bcast(payload, root=0)

    model.temperature.set_from_global(
        payload["temperature"] if model.comm.rank == 0 else None, root=0
    )
    # set_from_global scatters from rank 0; the bcast above also gives every
    # rank the scalars it needs without a second collective.
    model.steps_taken = int(payload["steps_taken"])
    model.current_time = float(payload["current_time"])
    budget = payload["budget"]
    model.budget.solar_in = float(budget[0])
    model.budget.olr_out = float(budget[1])
    model.budget.coupling_in = float(budget[2])
    model.budget.diffusion_residual = float(budget[3])
    # What was recorded or settled after the save belongs to steps the
    # restore takes back.
    model._ledger = []
    model._settled = []
    if isinstance(model, SeaIceModel):
        if "thickness" not in payload:
            raise ReproError(f"checkpoint {path.name} lacks the sea-ice thickness field")
        start, stop = model.temperature.rows_range
        model.thickness = np.array(payload["thickness"][start:stop])
    return model.steps_taken
