"""Component-name rules.

"An important feature of MPH is that the name-tag is for identifying a
given component; its actual name is entirely arbitrary" (paper §4.1) — so
the rules here are deliberately minimal: a name must be a single
non-keyword token so the line-oriented registration file stays parseable,
and names must be unique across the whole application.

Multi-instance executables add one rule (paper §4.4): "the component name
prefix ... determines that all instances of this executable must have
component names using this prefix".
"""

from __future__ import annotations

import re

from repro.errors import RegistryError

#: Structural keywords of the registration file; these can never be
#: component names.
KEYWORDS = frozenset(
    {
        "BEGIN",
        "END",
        "Multi_Component_Begin",
        "Multi_Component_End",
        "Multi_Instance_Begin",
        "Multi_Instance_End",
    }
)

#: Path segments of the reserved ``mph://`` process-set namespace (see
#: :mod:`repro.core.session`).  A component named after one of these would
#: shadow a built-in pset under the shorthand lookup (``session.pset("world")``
#: resolves to ``mph://world``), so the registry *linter* rejects them.  Core
#: validation deliberately does not: existing registration files with such
#: names keep working, they just cannot use the shorthand.
RESERVED_PSET_NAMES = frozenset(
    {"world", "self", "node", "exe", "component", "ensemble", "mph"}
)

#: One token: no whitespace, no comment characters, no ``=`` (reserved for
#: ``key=value`` argument fields).
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.\-]*$")


def validate_name(name: str) -> str:
    """Validate a component name-tag; return it unchanged.

    Raises
    ------
    RegistryError
        With a message naming the offending token.
    """
    if name in KEYWORDS:
        raise RegistryError(f"{name!r} is a registration-file keyword, not a component name")
    if not _NAME_RE.match(name):
        raise RegistryError(
            f"invalid component name {name!r}: must start with a letter and contain "
            "only letters, digits, '_', '.', '-'"
        )
    return name


def matches_prefix(instance_name: str, prefix: str) -> bool:
    """Whether *instance_name* is a legal instance of a multi-instance
    executable registered under *prefix* (strictly longer, same prefix).

    >>> matches_prefix("Ocean1", "Ocean")
    True
    >>> matches_prefix("Ocean", "Ocean")
    False
    >>> matches_prefix("Atmos1", "Ocean")
    False
    """
    return instance_name.startswith(prefix) and len(instance_name) > len(prefix)


def check_unique(names: list[str]) -> None:
    """Raise :class:`RegistryError` naming any duplicated component names."""
    seen: set[str] = set()
    dups: list[str] = []
    for n in names:
        if n in seen:
            dups.append(n)
        seen.add(n)
    if dups:
        raise RegistryError(f"duplicate component names in registration file: {sorted(set(dups))}")
