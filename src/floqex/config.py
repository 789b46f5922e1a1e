"""Flat key=value run configuration with strict validation.

Files hold one ``key = value`` per line; ``#`` starts a comment. Unknown keys,
unparsable numbers, and out-of-range values are rejected with the key name and
line. Defaults are the reference parameter set of :class:`ModelParams`; CLI
``--set`` assignments override file values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .exceptions import ConfigError
from .lattice import ModelParams

PARAM_KEYS = tuple(f.name for f in fields(ModelParams))


@dataclass
class RunOptions:
    """Scenario knobs; ``None`` means "use the scenario's default"."""

    grid: int | None = None
    seed: int = 7
    workers: int = 1  # accepted and validated; scans run in one thread
    detuning: float | None = None
    gamma: float = 0.005
    omega_min: float | None = None
    omega_max: float | None = None
    omega_step: float = 0.002
    gl_max: float = 0.03
    gl_step: float = 0.0005
    u12_min: float = 0.1
    u12_max: float = 1.2
    u12_step: float = 0.05
    det_min: float | None = None
    det_max: float | None = None
    det_step: float | None = None
    instances: int = 50
    trials: int = 20
    t21_values: tuple = (-0.2, -0.1, -0.05)


_INT_OPTIONS = {"grid", "seed", "workers", "instances", "trials"}
_LIST_OPTIONS = {"t21_values"}
OPTION_KEYS = tuple(f.name for f in fields(RunOptions))

def _parse_float(key, raw, line):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: value for {key!r} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line}: value for {key!r} must be finite, got {raw!r}")
    return value


def _parse_value(key: str, raw: str, line):
    if key in _LIST_OPTIONS:
        return tuple(_parse_float(key, part.strip(), line) for part in raw.split(","))
    if key in _INT_OPTIONS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"line {line}: value for {key!r} is not an integer: {raw!r}") from None
    return _parse_float(key, raw, line)


def _check_range(key: str, value, line):
    if key == "doping" and not 0.0 <= value < 1.0:
        raise ConfigError(f"line {line}: doping must lie in [0, 1), got {value}")
    if key in ("u11", "u12", "u12_min") and value < 0.0:
        raise ConfigError(f"line {line}: {key} must be non-negative, got {value}")
    if key == "grid":
        if value < 2 or value % 2 != 0:
            raise ConfigError(f"line {line}: grid must be an even integer >= 2, got {value}")
    if key == "seed" and value < 0:
        raise ConfigError(f"line {line}: seed must be non-negative, got {value}")
    if key == "workers" and value < 1:
        raise ConfigError(f"line {line}: workers must be >= 1, got {value}")
    if key in ("detuning", "gamma", "omega_step", "gl_step", "u12_step", "det_step") \
            and value is not None and value <= 0.0:
        raise ConfigError(f"line {line}: {key} must be positive, got {value}")
    if key in ("instances", "trials") and value < 1:
        raise ConfigError(f"line {line}: {key} must be >= 1, got {value}")


def parse_assignments(text: str, source: str = "config"):
    """Yield (key, raw_value, line_label) for each assignment line."""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        yield key.strip(), value.strip(), f"{lineno} ({source})"


def parse_config(text: str, overrides=(), flags=()) -> tuple[ModelParams, RunOptions]:
    """Parse a config file body plus override assignments into params and options.

    ``overrides`` are the ``--set`` assignments, labelled by their position;
    ``flags`` are (flag, assignment) pairs of options given by a flag of their
    own, labelled by that flag. Each wins over what comes before it.
    """
    params_kwargs = {}
    options_kwargs = {}
    assignments = list(parse_assignments(text))
    for i, item in enumerate(overrides, start=1):
        assignments.extend(parse_assignments(item, source=f"--set {i}"))
    for flag, item in flags:
        assignments.extend(parse_assignments(item, source=flag))
    for key, raw, line in assignments:
        if key in PARAM_KEYS:
            value = _parse_value(key, raw, line)
            _check_range(key, value, line)
            params_kwargs[key] = value
        elif key in OPTION_KEYS:
            value = _parse_value(key, raw, line)
            _check_range(key, value, line)
            options_kwargs[key] = value
        else:
            raise ConfigError(f"line {line}: unknown key {key!r}")
    try:
        params = ModelParams(**params_kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return params, RunOptions(**options_kwargs)
