"""Validated ``FLEET_*`` environment-variable parsing.

Every runtime knob that reads the environment goes through one of these
helpers so a typo fails loudly and identically everywhere: a
misspelled value (``FLEET_ENGINE=intrep``, ``FLEET_METRICS=yse``)
raises :class:`~repro.lang.errors.FleetConfigError` at the first point
of use instead of silently selecting the default — precisely when the
user is trying to pin a behavior is when silent fallback hurts most.

The variables in circulation:

========================  =================================================
``FLEET_ENGINE``          unit-simulation engine (``auto`` | ``interp``)
``FLEET_NATIVE``          native (cffi) builds of the batch engine's C
                          kernel, read when a unit is built (``auto``
                          probes for a C toolchain | ``off`` disables
                          it: batches then run per stream)
``FLEET_TRACE``           path: auto-instrument full-system and serve runs
                          and write a Perfetto trace there
``FLEET_METRICS``         flag: enable the process-wide
                          :mod:`repro.telemetry` metrics registry (read
                          once, on first use and after ``use_env()``)
========================  =================================================
"""

import os

from .lang.errors import FleetConfigError

#: Truthy / falsy spellings accepted by :func:`env_flag`.
_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


def env_choice(name, choices, default):
    """The value of environment variable ``name``, constrained to
    ``choices`` (case-insensitive, whitespace-stripped); ``default``
    when unset or empty. Unknown values raise
    :class:`FleetConfigError` naming the variable and the choices."""
    value = os.environ.get(name)
    if not value:
        return default
    norm = value.strip().lower()
    if norm not in choices:
        raise FleetConfigError(
            f"{name}={value!r} is not recognized: "
            f"choose one of {', '.join(choices)}"
        )
    return norm


def env_flag(name, default=False):
    """Boolean environment variable: ``1/true/on/yes`` versus
    ``0/false/off/no`` (case-insensitive); ``default`` when unset or
    empty; anything else raises :class:`FleetConfigError`."""
    value = os.environ.get(name)
    if not value:
        return default
    norm = value.strip().lower()
    if norm in _TRUE:
        return True
    if norm in _FALSE:
        return False
    raise FleetConfigError(
        f"{name}={value!r} is not a recognized flag: use one of "
        f"{', '.join(_TRUE)} / {', '.join(_FALSE)}"
    )


def env_path(name):
    """Path-valued environment variable: the (stripped) path, or
    ``None`` when unset or empty."""
    value = os.environ.get(name)
    if not value or not value.strip():
        return None
    return value.strip()


__all__ = ["env_choice", "env_flag", "env_path"]
