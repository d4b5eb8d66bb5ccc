"""Run configuration: a single JSON document per run.

Sections: sample, lead_l, lead_r, thermo, quadrature, sweep. Every section,
and every object inside one, is made by calling a constructor with its keys
as keyword arguments (see `_Builder.build`): the constructor's signature
says which keys exist, which are required and which JSON type each takes,
and the constructor itself checks the values. Errors name the offending
key path, and the arguments actually used, defaults included, are echoed
back as the resolved configuration for the run manifest.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import typing
from dataclasses import dataclass, is_dataclass
from typing import Optional, Union

import numpy as np

from . import leads, potentials
from .errors import ConfigError
from .fluxes import QuadratureParams
from .model import SampleSpec, ThermoParams
from .scan import ClassificationThresholds, check_checkpoints


def geometric_checkpoints(lo: int = 10, hi: int = 2000, n: int = 13) -> list:
    """Default geometric checkpoint spacing for L-sweeps."""
    return sorted(set(int(round(x)) for x in np.geomspace(lo, hi, n)))


def energy_range(min: float, max: float, points: int) -> tuple:
    """`points` equally spaced energies from `min` to `max`."""
    if not (max > min and points >= 2):
        raise ConfigError("need max > min and points >= 2")
    return tuple(np.linspace(min, max, points).tolist())


@dataclass(frozen=True)
class SweepParams:
    e_grid: Union[tuple[float, ...], energy_range, None] = None  # list or range
    energy: Optional[float] = None         # single energy for sweep-l
    l_checkpoints: tuple[int, ...] = tuple(geometric_checkpoints())
    thresholds: ClassificationThresholds = ClassificationThresholds()

    def __post_init__(self):
        check_checkpoints(self.l_checkpoints)


@dataclass(frozen=True)
class RunConfig:
    sample: SampleSpec
    potential_spec: potentials.PotentialSpec
    lead_l: leads.LeadModel
    lead_r: leads.LeadModel
    thermo: ThermoParams
    quadrature: QuadratureParams
    sweep: SweepParams
    resolved: dict


def _sample(length: int, potential: potentials.TYPES):
    """The sample section: the sample it describes, and its potential spec."""
    return SampleSpec(length, potentials.generate(potential, length)), potential


def _run(
    sample: _sample,
    lead_l: leads.TYPES,
    lead_r: leads.TYPES,
    thermo: ThermoParams,
    quadrature: QuadratureParams = QuadratureParams(),
    sweep: SweepParams = SweepParams(),
):
    """The config root: the sections of a run configuration, in the field
    order of RunConfig."""
    return (*sample, lead_l, lead_r, thermo, quadrature, sweep)


# JSON value kinds, by Python type (of a parsed value or of an annotation).
_KINDS = {
    type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
    str: "a string", list: "a list", tuple: "a list", dict: "an object",
}


def _kind(annotation) -> str:
    return _KINDS.get(typing.get_origin(annotation) or annotation, "an object")


class _Builder:
    """Builds objects from config sections; see `build` and `check`.

    A parameter named `path` is a file path relative to the config file's
    directory, and the command line's seed override, when given, replaces
    every configured `seed`.
    """

    def __init__(self, base_dir: str, seed_override: Optional[int]):
        self.base_dir = base_dir
        self.seed_override = seed_override

    def build(self, fn, section, path: str):
        """fn called with the keys of `section` as keyword arguments.

        fn's signature is the schema: keys that name no parameter are
        rejected, a parameter without a default is required, and each value
        is checked against the parameter's annotation. A missing parameter
        whose default is a dataclass is built from an empty object.
        ValueError and OSError from fn are re-raised as ConfigError under
        `path`. Returns fn's result and the arguments used, defaults included.
        """
        where = path or "config"
        if not isinstance(section, dict):
            raise ConfigError(f"{where}: expected an object")
        params = inspect.signature(fn, eval_str=True).parameters
        unknown = sorted(set(section) - set(params))
        if unknown:
            raise ConfigError(f"{where}: unknown key(s) {unknown}")
        args, echo = {}, {}
        for name, p in params.items():
            key = f"{path}.{name}" if path else name
            if name in section:
                given = section[name]
                if name == "seed" and self.seed_override is not None:
                    given = self.seed_override
                args[name], echo[name] = self.check(given, p.annotation, key)
            elif p.default is p.empty:
                raise ConfigError(f"{key}: required")
            elif is_dataclass(p.default):
                args[name], echo[name] = self.check({}, p.annotation, key)
            else:
                args[name] = echo[name] = p.default
        if "path" in args:
            args["path"] = echo["path"] = os.path.join(self.base_dir, args["path"])
        try:
            return fn(**args), echo
        except (ValueError, OSError) as exc:
            msg = str(exc)
            sep = "." if msg.split(":")[0] in params else ": "
            raise ConfigError(f"{where}{sep}{msg}") from None

    def check(self, value, annotation, path: str):
        """The Python value of JSON `value` under `annotation`, and its echo.

        float, int and str take that JSON scalar; a float must be finite and
        may be given as an integer. tuple[X, ...] takes a list of X, and a
        Union takes whichever member the JSON kind fits. A dict annotation is
        a table of constructors (a TYPES table): the object's `type` key picks
        the one that builds the rest. Any other annotation is the constructor
        of a nested object.
        """
        if isinstance(annotation, dict):
            return self.typed(annotation, value, path)
        union = typing.get_origin(annotation) is Union
        members = typing.get_args(annotation) if union else (annotation,)
        kind = _KINDS.get(type(value))
        for m in members:
            if _kind(m) != kind and not (m is float and kind == "an integer"):
                continue
            if m is float:
                if not abs(value) <= sys.float_info.max:
                    raise ConfigError(f"{path}: must be finite")
                return float(value), float(value)
            if typing.get_origin(m) is tuple:
                item = typing.get_args(m)[0]
                pairs = [self.check(v, item, f"{path}[{i}]") for i, v in enumerate(value)]
                return tuple(v for v, _ in pairs), [e for _, e in pairs]
            if kind == "an object":
                return self.build(m, value, path)
            return value, value
        raise ConfigError(f"{path}: expected {' or '.join(map(_kind, members))}")

    def typed(self, table: dict, section, path: str):
        """An object whose `type` key names its constructor in `table`."""
        if not (isinstance(section, dict) and isinstance(section.get("type"), str)):
            raise ConfigError(f"{path}: expected an object with a string 'type' key")
        name = section["type"]
        if name not in table:
            raise ConfigError(f"{path}.type: unknown type {name!r}, expected one of {sorted(table)}")
        rest = {k: v for k, v in section.items() if k != "type"}
        obj, echo = self.build(table[name], rest, path)
        return obj, {"type": name, **echo}


def parse_config(path: str, seed_override: Optional[int] = None) -> RunConfig:
    """Load, validate, and resolve a run configuration file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    builder = _Builder(os.path.dirname(os.path.abspath(path)), seed_override)
    fields, resolved = builder.build(_run, raw, "")
    return RunConfig(*fields, resolved)
