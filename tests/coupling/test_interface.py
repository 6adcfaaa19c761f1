"""Interface field packing (repro.coupling.interface)."""

import numpy as np
import pytest

from repro.coupling import InterfaceSpec
from repro.errors import CouplingError


class TestInterfaceSpec:
    def test_pack_unpack_roundtrip(self):
        spec = InterfaceSpec([("temperature", (4,)), ("flux", (2, 3))])
        fields = {
            "temperature": np.arange(4.0),
            "flux": np.arange(6.0).reshape(2, 3),
        }
        vec = spec.pack(fields)
        assert vec.shape == (10,)
        out = spec.unpack(vec)
        np.testing.assert_array_equal(out["temperature"], fields["temperature"])
        np.testing.assert_array_equal(out["flux"], fields["flux"])

    def test_layout_is_declaration_order_c_order(self):
        """The bitwise-reproducibility contract: field declaration order,
        C order within a field — never dict insertion order of the data."""
        spec = InterfaceSpec([("b", (2,)), ("a", (2,))])
        vec = spec.pack({"a": np.array([3.0, 4.0]), "b": np.array([1.0, 2.0])})
        np.testing.assert_array_equal(vec, [1.0, 2.0, 3.0, 4.0])

    def test_scalar_field(self):
        spec = InterfaceSpec([("alpha", ())])
        assert spec.size == 1
        vec = spec.pack({"alpha": np.asarray(7.0)})
        assert spec.unpack(vec)["alpha"].shape == ()

    def test_empty_rejected(self):
        with pytest.raises(CouplingError, match="at least one field"):
            InterfaceSpec([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(CouplingError, match="duplicate"):
            InterfaceSpec([("t", (2,)), ("t", (3,))])

    def test_pack_missing_field(self):
        spec = InterfaceSpec([("t", (2,)), ("f", (2,))])
        with pytest.raises(CouplingError, match="missing"):
            spec.pack({"t": np.zeros(2)})

    def test_pack_wrong_shape(self):
        spec = InterfaceSpec([("t", (2,))])
        with pytest.raises(CouplingError, match="shape"):
            spec.pack({"t": np.zeros(3)})

    def test_unpack_wrong_length(self):
        spec = InterfaceSpec([("t", (2,))])
        with pytest.raises(CouplingError, match="unpack"):
            spec.unpack(np.zeros(3))
