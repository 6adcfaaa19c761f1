"""MPH core: registration, handshaking, and the unified mode interface.

The subpackage layout follows the paper:

* :mod:`repro.core.registry` — the ``processors_map.in`` file (§3, §4);
* :mod:`repro.core.handshake` — the declarations and the layout resolution
  of the handshake (§6);
* :mod:`repro.core.session` — the handshake's exchange, named process
  sets, and the failure shrink's epochs (§6, MPI Sessions);
* :mod:`repro.core.mph` — ``components_setup`` / ``multi_instance`` and
  the :class:`MPH` handle, a view of one session at one epoch (§4, §5.3),
  whose ``send`` / ``recv`` family is the name-addressed messaging (§5.2);
* :mod:`repro.core.join` — ``MPH_comm_join`` (§5.1);
* :mod:`repro.core.arguments` — ``MPH_get_argument`` (§4.4);
* :mod:`repro.core.redirect` — multi-channel output (§5.4);
* :mod:`repro.core.ensemble` — ensemble statistics and control (§2.5);
* :mod:`repro.core.migration` — dynamic reallocation (§9 future work);
* :mod:`repro.core.profiling` — per-component-pair message counters.
"""

from repro.core.arguments import ArgumentFields
from repro.core.ensemble import (
    CONTROL_TAG,
    REPORT_TAG,
    EnsembleCollector,
    EnsembleMember,
    EnsembleStats,
    OnlineMoments,
)
from repro.core.handshake import ComponentDecl, InstanceDecl
from repro.core.layout import ComponentInfo, ExecutableInfo, Layout
from repro.core.migration import block_rows, migrate, redistribute_block
from repro.core.mph import MPH, components_setup, multi_instance
from repro.core.profiling import CommProfile, gather_profiles
from repro.core.redirect import MultiChannelOutput, ProcessOutput, log_path_for
from repro.core.registry import (
    ComponentSpec,
    MultiComponentEntry,
    MultiInstanceEntry,
    Registry,
    SingleComponentEntry,
)

__all__ = [
    "ArgumentFields",
    "CONTROL_TAG",
    "REPORT_TAG",
    "EnsembleCollector",
    "EnsembleMember",
    "EnsembleStats",
    "OnlineMoments",
    "ComponentDecl",
    "InstanceDecl",
    "ComponentInfo",
    "ExecutableInfo",
    "Layout",
    "block_rows",
    "migrate",
    "redistribute_block",
    "MPH",
    "components_setup",
    "multi_instance",
    "CommProfile",
    "gather_profiles",
    "MultiChannelOutput",
    "ProcessOutput",
    "log_path_for",
    "ComponentSpec",
    "MultiComponentEntry",
    "MultiInstanceEntry",
    "Registry",
    "SingleComponentEntry",
]
