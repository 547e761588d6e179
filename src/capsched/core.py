"""Shared value types for capacity planning and contention-aware scheduling.

The pipeline moves three kinds of data between its stages:

* resource configurations (cores, memory) drawn from a bounded grid,
* scaling surfaces, i.e. tables of relative speedup over that grid,
* interference profiles, i.e. per-shared-resource pressure and
  sensitivity levels on a common 0..N scale.

Everything here is a plain frozen dataclass. Records, frozen dataclasses
and NamedTuples alike, share one JSON encoder and one type-checking
decoder (fields_json, decode), so CLI outputs are stable byte-for-byte
across reruns of the same inputs.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import math
import operator
import struct
import sys
import types
import typing
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "CapacityExhaustedError",
    "ConfigRegion",
    "InfeasibleError",
    "InterferenceProfile",
    "JsonRecord",
    "NodeConstants",
    "OutOfRegionError",
    "PressureSensitivity",
    "ResourceSpec",
    "ScalingSurface",
    "SharedResource",
    "SystemIndexVector",
    "INDEX_NAMES",
    "canonical_json",
    "decode",
    "fields_json",
    "read_json",
    "reject_unknown_keys",
    "round_half_up",
    "write_json",
]


class OutOfRegionError(ValueError):
    """A resource spec lies outside the configured region bounds."""


class InfeasibleError(RuntimeError):
    """No configuration in the region satisfies the requested target."""

    def __init__(self, message: str, best_speedup: float = 0.0):
        super().__init__(message)
        self.best_speedup = best_speedup


class CapacityExhaustedError(RuntimeError):
    """No node has enough free capacity for a deployment request."""


def round_half_up(x: float) -> int:
    """Round to the nearest integer with ties going up.

    Pressure discretization specifies half-up rounding, which differs
    from Python's bankers rounding: round_half_up(4.5) == 5, not 4.
    """
    return int(math.floor(x + 0.5))


_CANONICAL = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False)


def canonical_json(obj) -> str:
    """Serialize to the one JSON form used for every artifact file."""
    # The indented encoder yields one small string per token; joining them
    # a batch at a time holds one batch of those, not all of them.
    chunks = _CANONICAL.iterencode(obj)
    parts = []
    while batch := list(itertools.islice(chunks, 4096)):
        parts.append("".join(batch))
    parts.append("\n")
    return "".join(parts)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def read_json(path):
    """The JSON value in a file; a file that does not parse is named."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# The JSON types each plain type accepts, and its name in messages; list
# and dict stand for any JSON list or object. A bool is only a bool,
# never an integer or a number, though Python's bool is an int.
_PLAIN = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          bool: ((bool,), "true or false"), str: ((str,), "a string"),
          type(None): ((type(None),), "null"), list: ((list,), "a list"),
          dict: ((dict,), "a JSON object")}


def _is(tp, value) -> bool:
    return (tp in _PLAIN and isinstance(value, bool) == (tp is bool)
            and isinstance(value, _PLAIN[tp][0]))


def _shown(value) -> str:
    shown = json.dumps(value)
    return shown if len(shown) <= 60 else shown[:57] + "..."


def _mismatch(tp, value, where: str) -> ValueError:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _PLAIN:
        kind = _PLAIN[tp][1]
    elif origin is tuple:
        kind = "a list" if args[-1] is Ellipsis else f"a list of {len(args)}"
    elif origin is typing.Literal:
        kind = " or ".join(json.dumps(arg) for arg in args)
    elif origin is types.UnionType:
        kind = " or ".join(_PLAIN[arm][1] for arm in args)
    else:
        kind = "a JSON object"
    return ValueError(f"{where} needs {kind}, got {_shown(value)}")


def decode(tp, value, where: str):
    """The value of type tp whose JSON form is value.

    tp is int, float, bool, str, list or dict (any JSON list or object), a
    tuple type (from a list), a Literal, a union of plain types such as
    float | None, a class with from_json(obj, where) such as a
    JsonRecord, or a dict of field names to types, which reads those
    fields of an object into a dict. An int loads as a float, and a
    number must be finite. A wrong JSON type raises ValueError naming
    where, the type expected and the value found; a missing field
    raises '<where> has no <field>'.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if isinstance(tp, dict):
        if not isinstance(value, dict):
            raise _mismatch(dict, value, where)
        out = {}
        for name, t in tp.items():
            if name not in value:
                raise ValueError(f"{where} has no {name!r}")
            out[name] = decode(t, value[name], f"{where}.{name}")
        return out
    if origin is tuple:
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value) if isinstance(value, list) else ()
        if not isinstance(value, list) or len(value) != len(args):
            raise _mismatch(tp, value, where)
        return tuple(decode(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if origin is types.UnionType:
        tp = next((arm for arm in args if _is(arm, value)), tp)
    if _is(tp, value):
        if tp is not float:
            return value
        # NaN fails every comparison; an int too large for a float fails this one.
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where} needs a finite number, got {_shown(value)}")
        return float(value)
    if origin is typing.Literal and value in args:
        return value
    if tp in _PLAIN or origin:
        raise _mismatch(tp, value, where)
    return tp.from_json(value, where)


def reject_unknown_keys(obj: dict, known, where: str) -> None:
    """Raise ValueError naming every key of obj not among known: where keys
    may be left out, a misspelt one would otherwise fall back to the default."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}")


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """A record class's field names in order: a NamedTuple's _fields, else
    its dataclass fields. Read once per class, not on every encode."""
    return cls._fields if issubclass(cls, tuple) else tuple(f.name for f in fields(cls))


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {name: hints[name] for name in _field_names(cls)}


# Values that fields_json passes through as they are; checked by exact
# type before the to_json probe, which fails on every one of them.
_PLAIN_TYPES = frozenset({int, float, str, bool, type(None)})


def _form(value):
    if type(value) in _PLAIN_TYPES:
        return value
    if hasattr(value, "to_json"):
        return value.to_json()
    return [_form(v) for v in value] if isinstance(value, tuple) else value


def fields_json(record) -> dict:
    """The JSON form of a record as an object of its fields. A field
    with a to_json takes that form, a tuple becomes a list, and any
    other value stays as it is."""
    return {name: _form(getattr(record, name)) for name in _field_names(type(record))}


class JsonRecord:
    """A dataclass or NamedTuple whose JSON form is fields_json of it.

    Loading checks every field's JSON type against its annotation
    through decode; a value the constructor refuses is named by where.
    A NamedTuple record encodes as an object of its fields, not a list.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return fields_json(self)

    @classmethod
    def from_json(cls, obj, where: str | None = None):
        """The record whose JSON form is obj; where names it in errors."""
        where = where or cls.__name__
        got = decode(_field_types(cls), obj, where)
        try:
            return cls(**got)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True, order=True)
class ResourceSpec(JsonRecord):
    """A resource configuration: CPU cores and memory in GB."""

    cores: int
    memory_gb: int

    def __post_init__(self):
        if self.cores < 1 or self.memory_gb < 1:
            raise ValueError(f"spec must be positive, got {self}")

    @property
    def key(self) -> str:
        return f"{self.cores}c{self.memory_gb}g"

    @classmethod
    def parse(cls, text: str) -> "ResourceSpec":
        """Parse '6c8g' or '6,8' into a spec; a fault names text as typed."""
        t = text.strip().lower()
        if "c" in t:
            c, _, m = t.partition("c")
            m = m.removesuffix("g")
        else:
            c, _, m = t.partition(",")
        try:
            cores, memory_gb = int(c), int(m)
        except ValueError:
            raise ValueError(f"{text!r} is not a spec like 6c8g or 6,8") from None
        return cls(cores=cores, memory_gb=memory_gb)


# Default grid. Cores step by at most 2 so a grid neighbor is never
# more than 2 cores / 4 GB away, and (1c, 2g) is a valid base config.
DEFAULT_CORE_LEVELS = (1, 2, 4, 6, 8, 10, 12)
DEFAULT_MEMORY_LEVELS = (2, 4, 6, 8, 12, 16)


@dataclass(frozen=True)
class ConfigRegion(JsonRecord):
    """The bounded grid of configurations a tenant may be assigned.

    Bounds checks (contains) accept any integer spec inside the
    rectangle spanned by the level sets; grid membership is stricter.
    """

    core_levels: tuple[int, ...] = DEFAULT_CORE_LEVELS
    memory_levels_gb: tuple[int, ...] = DEFAULT_MEMORY_LEVELS

    def __post_init__(self):
        for name, levels in (("core_levels", self.core_levels),
                             ("memory_levels_gb", self.memory_levels_gb)):
            if len(levels) < 1:
                raise ValueError(f"{name} must be non-empty")
            if list(levels) != sorted(set(levels)):
                raise ValueError(f"{name} must be strictly increasing: {levels}")
            if levels[0] < 1:
                raise ValueError(f"{name} must be positive: {levels}")

    def specs(self) -> tuple[ResourceSpec, ...]:
        """All grid points, cores-major, ascending."""
        return tuple(ResourceSpec(c, m)
                     for c in self.core_levels for m in self.memory_levels_gb)

    def contains(self, spec: ResourceSpec) -> bool:
        return (self.core_levels[0] <= spec.cores <= self.core_levels[-1]
                and self.memory_levels_gb[0] <= spec.memory_gb <= self.memory_levels_gb[-1])

    def is_grid_point(self, spec: ResourceSpec) -> bool:
        return spec.cores in self.core_levels and spec.memory_gb in self.memory_levels_gb

    def require(self, spec: ResourceSpec) -> None:
        if not self.contains(spec):
            raise OutOfRegionError(f"{spec} outside region "
                                   f"[{self.core_levels[0]}-{self.core_levels[-1]}c, "
                                   f"{self.memory_levels_gb[0]}-{self.memory_levels_gb[-1]}g]")

    @property
    def max_spec(self) -> ResourceSpec:
        return ResourceSpec(self.core_levels[-1], self.memory_levels_gb[-1])


# How far a speedup may fall along an axis before is_monotone says no.
MONOTONE_TOL = 1e-9


def _bracket(levels: tuple[int, ...], value: float) -> tuple[int, int, float]:
    """Indexes of the bracketing grid levels and the interpolation weight of the upper one."""
    if value <= levels[0]:
        return 0, 0, 0.0
    if value >= levels[-1]:
        return len(levels) - 1, len(levels) - 1, 0.0
    for i, (lo, hi) in enumerate(zip(levels, levels[1:])):
        if lo <= value <= hi:
            return i, i + 1, (value - lo) / (hi - lo)
    raise AssertionError("unreachable")


@dataclass(frozen=True, eq=False)
class ScalingSurface:
    """Relative speedup of one workload over a config region.

    values[i, j] is TPS / TPS(base_spec) at core_levels[i] and
    memory_levels_gb[j], a read-only float array whose ravel() follows
    region.specs(); the entry at base_spec is exactly 1.0. Off-grid
    specs inside the region bounds are evaluated by bilinear
    interpolation between the bracketing grid levels, which preserves
    monotonicity and is exact on grid points.
    """

    region: ConfigRegion
    base_spec: ResourceSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        shape = (len(self.region.core_levels), len(self.region.memory_levels_gb))
        if values.shape != shape:
            raise ValueError(f"surface needs shape {shape}, got {values.shape}")
        if not self.region.is_grid_point(self.base_spec):
            raise ValueError(f"base {self.base_spec} not on grid")
        base = values.item(self._index(self.base_spec))
        if not math.isclose(base, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"speedup at base must be 1.0, got {base}")
        good = (values > 0) & (values < np.inf)
        if not good.all():
            bad = np.flatnonzero(~good)[0]
            raise ValueError(f"speedup at {self.region.specs()[bad].key} must be "
                             f"finite positive, got {values.item(bad)}")

    def __eq__(self, other):
        if not isinstance(other, ScalingSurface):
            return NotImplemented
        return (self.region == other.region and self.base_spec == other.base_spec
                and np.array_equal(self.values, other.values))

    def _index(self, spec: ResourceSpec) -> tuple[int, int]:
        return (self.region.core_levels.index(spec.cores),
                self.region.memory_levels_gb.index(spec.memory_gb))

    def speedup_at(self, spec: ResourceSpec) -> float:
        self.region.require(spec)
        if self.region.is_grid_point(spec):
            return self.values.item(self._index(spec))
        c0, c1, tc = _bracket(self.region.core_levels, spec.cores)
        m0, m1, tm = _bracket(self.region.memory_levels_gb, spec.memory_gb)
        v = self.values.item
        lo = v(c0, m0) + tm * (v(c0, m1) - v(c0, m0))
        hi = v(c1, m0) + tm * (v(c1, m1) - v(c1, m0))
        return lo + tc * (hi - lo)

    def rebase(self, new_base: ResourceSpec) -> "ScalingSurface":
        """Re-anchor so the entry at new_base becomes 1.0."""
        if not self.region.is_grid_point(new_base):
            raise ValueError(f"{new_base} not on grid")
        return ScalingSurface(region=self.region, base_spec=new_base,
                              values=self.values / self.values[self._index(new_base)])

    def is_monotone(self) -> bool:
        """Non-decreasing along both resource axes, up to MONOTONE_TOL."""
        v, tol = self.values, MONOTONE_TOL
        return bool((v[1:] >= v[:-1] - tol).all() and (v[:, 1:] >= v[:, :-1] - tol).all())

    def to_json(self) -> dict:
        return {"base_spec": self.base_spec.to_json(),
                "speedups": dict(zip((s.key for s in self.region.specs()),
                                     self.values.ravel().tolist()))}

    @classmethod
    def from_json(cls, region: ConfigRegion, obj,
                  where: str = "surface") -> "ScalingSurface":
        """The surface over region whose JSON form is obj, keyed by grid point."""
        got = decode({"base_spec": ResourceSpec,
                      "speedups": {s.key: float for s in region.specs()}}, obj, where)
        values = np.reshape(list(got["speedups"].values()),
                            (len(region.core_levels), len(region.memory_levels_gb)))
        return cls(region=region, base_spec=got["base_spec"], values=values)


@dataclass(frozen=True)
class SystemIndexVector(JsonRecord):
    """One observation of the 15 system-level indexes, in a fixed order.

    These are the observable per-workload counters a deployed database
    exposes without any application-level instrumentation.
    """

    ipc: float
    dtlb_store_misses: float
    cache_misses: float
    node_stores: float
    io_read_bytes: float
    io_serviced_read: float
    memory_usage: float
    cpu_usage: float
    page_fault: float
    dtlb_load_misses: float
    cache_references: float
    node_loads: float
    io_write_bytes: float
    io_serviced_write: float
    dirty_memory: float

    def __post_init__(self):
        for name, v in zip(INDEX_NAMES, _index_values(self)):
            if not 0 <= v < math.inf:
                raise ValueError(f"index {name} must be finite non-negative, got {v}")
        if self.cache_misses > self.cache_references + 1e-9:
            raise ValueError("cache_misses cannot exceed cache_references")

    def as_array(self) -> np.ndarray:
        return np.array(_index_values(self), dtype=float)


INDEX_NAMES = tuple(f.name for f in fields(SystemIndexVector))
_index_values = operator.attrgetter(*INDEX_NAMES)


class SharedResource(enum.Enum):
    """Node-level shared resources a co-located tenant can contend on."""

    LLC = "llc"
    MEMORY_BANDWIDTH = "membw"
    DISK = "disk"
    NETWORK = "network"


@dataclass(frozen=True)
class PressureSensitivity(JsonRecord):
    """Levels on the common 0..N contention scale.

    pressure: how hard the workload pushes on the resource.
    sensitivity: how much the workload suffers when others push.
    """

    pressure: int
    sensitivity: int

    # Far above any contention scale; the cap keeps the scheduler's int64
    # sums and products of levels exact.
    MAX = 2 ** 31 - 1

    def __post_init__(self):
        if not (0 <= self.pressure <= self.MAX and 0 <= self.sensitivity <= self.MAX):
            raise ValueError(f"levels must be in [0, {self.MAX}], got {self}")


# Eight native int64s: a profile's pressures, then its sensitivities.
_PACKED_LEVELS = struct.Struct("=8q")


@dataclass(frozen=True)
class InterferenceProfile(JsonRecord):
    """Pressure and sensitivity for each shared resource.

    Construction also sets the levels in positional form, in
    SharedResource order: pressures and sensitivities, four ints each,
    and packed_levels, the same eight ints as native int64 bytes, which
    np.frombuffer reads for many joined profiles as one (n, 2, 4)
    array. None is a field, so the JSON form and equality are the
    fields' alone. They are set eagerly rather than cached on first
    use, so they live in the instance itself and not in a separate
    dict, one memory load fewer per profile for an array reader.
    """

    llc: PressureSensitivity
    membw: PressureSensitivity
    disk: PressureSensitivity
    network: PressureSensitivity

    def __post_init__(self):
        llc, membw, disk, network = self.llc, self.membw, self.disk, self.network
        pressures = (llc.pressure, membw.pressure, disk.pressure, network.pressure)
        sensitivities = (llc.sensitivity, membw.sensitivity, disk.sensitivity,
                         network.sensitivity)
        object.__setattr__(self, "pressures", pressures)
        object.__setattr__(self, "sensitivities", sensitivities)
        object.__setattr__(self, "packed_levels",
                           _PACKED_LEVELS.pack(*pressures, *sensitivities))

    def get(self, resource: SharedResource) -> PressureSensitivity:
        return getattr(self, resource.value)

    @classmethod
    def zero(cls) -> "InterferenceProfile":
        z = PressureSensitivity(0, 0)
        return cls(llc=z, membw=z, disk=z, network=z)


@dataclass(frozen=True)
class NodeConstants(JsonRecord):
    """Physical capacities of one node's shared resources.

    Used both to discretize measured usage into pressure levels and to
    parameterize the simulated probe. Bandwidths are GB/s, disk is
    IOPS, the LLC is divided into equal ways.
    """

    phy_membw_gbps: float = 20.0
    phy_network_gbps: float = 25.0
    iops_per_level: float = 1000.0
    llc_ways: int = 11
    levels: int = 20
    kmps_per_level: float = 100.0

    def __post_init__(self):
        if self.levels < 1 or self.llc_ways < 1:
            raise ValueError("levels and llc_ways must be positive")
        for name in ("phy_membw_gbps", "phy_network_gbps", "iops_per_level", "kmps_per_level"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
