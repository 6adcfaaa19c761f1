"""MPMD launch specifications: command files and mpirun-style colon specs.

The paper (Section 6): "on IBM SP, we use the MPMD mode, ``-pgmmodel mpmd``
to launch such a job.  Different executables are specified in a command file
using ``-cmdfile``.  Similar commands exist for Compaq Alpha clusters and
SGI Origin."

Two concrete formats are parsed here:

* **poe command file** — one line *per MPI task* naming the program that
  task runs (optionally with arguments).  Consecutive identical lines form
  one executable;
* **mpirun colon spec** — ``-np 16 atm : -np 8 ocn arg1`` segments.

Since this reproduction runs "executables" as Python callables, a parsed
spec holds program *names*; :func:`resolve_programs` binds names to
callables through a program registry, the stand-in for ``$PATH`` lookup.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import LaunchError
from repro.util.text import tokenize_line


@dataclass(frozen=True)
class ExecutableSpec:
    """One executable of an MPMD job: program name, task count, argv."""

    program: str
    nprocs: int
    argv: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.program:
            raise LaunchError("executable spec needs a program name")
        if self.nprocs < 1:
            raise LaunchError(
                f"executable {self.program!r} requested {self.nprocs} processes; need >= 1"
            )


def parse_poe_cmdfile(text: str) -> list[ExecutableSpec]:
    """Parse an IBM-``poe``-style command file (one line per MPI task).

    >>> specs = parse_poe_cmdfile('''
    ... atm
    ... atm
    ... ocn -quick
    ... ''')
    >>> [(s.program, s.nprocs) for s in specs]
    [('atm', 2), ('ocn', 1)]
    """
    specs: list[ExecutableSpec] = []
    for raw in text.splitlines():
        tokens = tokenize_line(raw)
        if not tokens:
            continue
        program, argv = tokens[0], tuple(tokens[1:])
        if specs and specs[-1].program == program and specs[-1].argv == argv:
            last = specs[-1]
            specs[-1] = ExecutableSpec(last.program, last.nprocs + 1, last.argv)
        else:
            specs.append(ExecutableSpec(program, 1, argv))
    if not specs:
        raise LaunchError("command file lists no tasks")
    return specs


def parse_mpirun_spec(spec: str) -> list[ExecutableSpec]:
    """Parse an ``mpirun`` MPMD colon spec.

    >>> specs = parse_mpirun_spec("-np 16 atm : -np 8 ocn -fast")
    >>> [(s.program, s.nprocs, s.argv) for s in specs]
    [('atm', 16, ()), ('ocn', 8, ('-fast',))]
    """
    specs: list[ExecutableSpec] = []
    for segment in spec.split(":"):
        tokens = segment.split()
        if not tokens:
            raise LaunchError(f"empty segment in mpirun spec {spec!r}")
        if tokens[0] != "-np" and tokens[0] != "-n":
            raise LaunchError(f"segment must start with -np/-n: {segment.strip()!r}")
        if len(tokens) < 3:
            raise LaunchError(f"segment needs '-np <count> <program>': {segment.strip()!r}")
        try:
            nprocs = int(tokens[1])
        except ValueError as exc:
            raise LaunchError(f"bad process count {tokens[1]!r} in {segment.strip()!r}") from exc
        specs.append(ExecutableSpec(tokens[2], nprocs, tuple(tokens[3:])))
    return specs


#: A program registry maps program names to Python callables with the
#: executable entry-point signature ``fn(comm_world, env) -> result``.
ProgramRegistry = Mapping[str, Callable]


def load_programs(spec: str) -> dict:
    """Import a program registry named by *spec*: ``pkg.module`` (its
    ``PROGRAMS`` dict) or ``pkg.module:ATTR`` — what ``mphrun --programs``
    receives, and what an exec'd rank resolves its program from."""
    module_name, _, attr = spec.partition(":")
    attr = attr or "PROGRAMS"
    module = importlib.import_module(module_name)
    try:
        programs = getattr(module, attr)
    except AttributeError:
        raise LaunchError(
            f"module {module_name!r} has no attribute {attr!r}; expose a dict of "
            "program-name -> callable"
        ) from None
    if not isinstance(programs, dict):
        raise LaunchError(f"{module_name}:{attr} must be a dict, got {type(programs).__name__}")
    return programs


def resolve_programs(
    specs: Sequence[ExecutableSpec], programs: ProgramRegistry
) -> list[Callable]:
    """Bind each spec's program name to its callable.

    Raises
    ------
    LaunchError
        Naming the missing program and the available ones — the analogue of
        a shell's "command not found".
    """
    fns: list[Callable] = []
    for spec in specs:
        fn = programs.get(spec.program)
        if fn is None:
            raise LaunchError(
                f"program {spec.program!r} not found; registry has {sorted(programs)}"
            )
        fns.append(fn)
    return fns
