"""Interface data: the named fields a coupling iteration converges on.

Coupled solvers do linear algebra on one flat vector; the component
models hold *fields*.  An :class:`InterfaceSpec` fixes the bridge once —
an ordered set of named fields with shapes — and packs/unpacks between
``{name: array}`` dicts and the flat iterate vector deterministically
(field declaration order, C order within a field), so results stay
bitwise schedule-independent.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.errors import CouplingError


class InterfaceSpec:
    """An ordered, shaped set of interface fields.

    >>> spec = InterfaceSpec([("temperature", (4,)), ("flux", (2, 3))])
    >>> spec.size
    10
    >>> vec = spec.pack({"temperature": np.zeros(4), "flux": np.ones((2, 3))})
    >>> spec.unpack(vec)["flux"].shape
    (2, 3)
    """

    def __init__(self, fields: Iterable[Tuple[str, Tuple[int, ...]]]):
        self.fields: Tuple[Tuple[str, Tuple[int, ...]], ...] = tuple(
            (str(name), tuple(int(n) for n in shape)) for name, shape in fields
        )
        if not self.fields:
            raise CouplingError("an interface needs at least one field")
        names = [name for name, _ in self.fields]
        if len(set(names)) != len(names):
            raise CouplingError(f"duplicate interface field names in {names}")
        self._slices: Dict[str, slice] = {}
        offset = 0
        for name, shape in self.fields:
            n = int(np.prod(shape, dtype=int)) if shape else 1
            self._slices[name] = slice(offset, offset + n)
            offset += n
        #: Total length of the packed iterate vector.
        self.size = offset

    def pack(self, fields: Mapping[str, np.ndarray]) -> np.ndarray:
        """Concatenate *fields* into the flat iterate vector (float64)."""
        missing = set(self._slices) - set(fields)
        if missing:
            raise CouplingError(f"pack: missing interface fields {sorted(missing)}")
        out = np.empty(self.size, dtype=float)
        for name, shape in self.fields:
            data = np.asarray(fields[name], dtype=float)
            if data.shape != shape:
                raise CouplingError(
                    f"pack: field {name!r} has shape {data.shape}, declared {shape}"
                )
            out[self._slices[name]] = data.ravel()
        return out

    def unpack(self, vector: np.ndarray) -> Dict[str, np.ndarray]:
        """Split the flat iterate vector back into named field arrays."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.size,):
            raise CouplingError(
                f"unpack: vector shape {vector.shape} != ({self.size},)"
            )
        return {
            name: vector[self._slices[name]].reshape(shape)
            for name, shape in self.fields
        }
