"""The ``REPRO_*`` environment variables, read in one place.

Every variable is a *default*, never a command: an explicit argument or
CLI flag wins, and an empty value means unset (a CI matrix leg exporting
``REPRO_BACKEND=""`` gets the built-in default).  This module is the only
``os.environ`` reader under ``src/repro``; the resolvers that consume a
variable (``get_backend``, ``TransportCalculation``'s energy mode, the
backend deadline, the CLI event stream) call :func:`read`, and
:func:`resolved` is what ``run_started`` events and ``repro doctor``
print.
"""

from __future__ import annotations

import os

__all__ = ["read", "resolved"]


def _flag(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


#: name -> (parser of the non-empty raw string, value when unset)
_VARIABLES = {
    "REPRO_BACKEND": (str, "serial"),
    "REPRO_WORKERS": (int, 2),
    "REPRO_DEADLINE_S": (float, None),
    "REPRO_ADAPTIVE": (_flag, False),
    "REPRO_EVENTS": (str, ""),
}


def read(name: str, default=None):
    """Parsed value of one ``REPRO_*`` variable; when it is unset or
    empty, ``default`` if given, else the variable's built-in default."""
    parser, builtin = _VARIABLES[name]
    raw = os.environ.get(name) or ""
    if raw:
        return parser(raw)
    return builtin if default is None else default


def resolved() -> dict:
    """Every variable with the value this process resolves it to."""
    return {name: read(name) for name in _VARIABLES}
