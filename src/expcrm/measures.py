"""Atomic measure types and their JSON round-trip.

Two kinds of measures appear throughout: trait measures (positive real
weights at distinct locations, the latent object) and observation measures
(positive integer counts at distinct locations, the data), each held as
read-only columns.  Each type has one constructor, which takes its columns
and checks them once; :class:`Atom` and :class:`ObservationAtom` are views
built when a measure's atoms are read.
Locations live on the unit interval ``[0, 1)``; only their identity matters,
the geometry never enters any formula.

Serialization writes every float as a 17-significant-digit decimal string, so
a dump/load cycle reproduces the exact same doubles and byte-identical files
can be diffed across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError


def _check_float(name: str, value, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got an integer too large for a float") from None
    if not np.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    if positive and x <= 0.0:
        raise DomainError(f"{name} must be positive, got {x}")
    return x


@dataclass(frozen=True, slots=True)
class Location:
    """A point of the unit interval, compared by exact float value."""

    value: float

    def __post_init__(self):
        v = _check_float("location", self.value)
        if not 0.0 <= v < 1.0:
            raise DomainError(f"location must lie in [0, 1), got {v}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True, slots=True)
class Atom:
    """A single weighted atom of a trait measure."""

    weight: float
    location: Location

    def __post_init__(self):
        object.__setattr__(self, "weight", _check_float("weight", self.weight, positive=True))
        if not isinstance(self.location, Location):
            object.__setattr__(self, "location", Location(self.location))


@dataclass(frozen=True, slots=True)
class ObservationAtom:
    """A positive integer count attached to a location."""

    count: int
    location: Location

    def __post_init__(self):
        c = self.count
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise DomainError(f"count must be an integer, got {c!r}")
        if int(c) < 1:
            raise DomainError(f"count must be >= 1, got {c}")
        object.__setattr__(self, "count", int(c))
        if not isinstance(self.location, Location):
            object.__setattr__(self, "location", Location(self.location))


@dataclass(frozen=True, slots=True)
class TruncationMeta:
    """How a finite trait-measure realization relates to the infinite model.

    ``kind`` is ``"truncated"`` when the ordinary component was cut after
    ``rounds`` size-biased rounds and counts above ``count_cap``, or
    ``"exact-finite"`` when the realization is exact (no ordinary component
    was discarded).
    """

    kind: str
    rounds: int | None = None
    count_cap: int | None = None

    def __post_init__(self):
        if self.kind not in ("truncated", "exact-finite"):
            raise DomainError(f"truncation kind must be 'truncated' or 'exact-finite', got {self.kind!r}")
        if self.kind == "truncated":
            for name in ("rounds", "count_cap"):
                v = getattr(self, name)
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                    raise DomainError(f"truncated measures need an integer {name} >= 1, got {v!r}")
                object.__setattr__(self, name, int(v))
        elif self.rounds is not None or self.count_cap is not None:
            raise DomainError("exact-finite measures carry no rounds/count_cap")


EXACT_FINITE = TruncationMeta("exact-finite")


def _atom_columns(what: str, values, locations, *, counts=False) -> tuple[np.ndarray, np.ndarray]:
    """Read-only, checked copies of one group's weights (float64, positive, finite)
    or, with ``counts``, counts (int64, >= 1), and its locations (float64, in [0, 1))."""
    name = "counts" if counts else "weights"
    if counts and np.asarray(values).dtype.kind != "i":  # an int past int64 wraps or makes floats
        wide = [v for v in np.asarray(values, dtype=object).ravel().tolist() if type(v) is int and abs(v) >= 2**63]
        if wide:
            raise DomainError(f"{what}: counts must be integers in 1..{2**63 - 1}, got {wide[0]}")
    value_column = (values, "iu", np.int64) if counts else (values, "fiu", float)
    out = []
    for arr, kinds, dtype in (value_column, (locations, "fiu", float)):
        arr = np.asarray(arr)
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in kinds):
            raise DomainError(f"{what}: expected one-dimensional arrays of {name} and locations")
        arr = arr.astype(dtype)
        arr.flags.writeable = False
        out.append(arr)
    values, locations = out
    if values.size != locations.size:
        raise DomainError(f"{what}: {values.size} {name} but {locations.size} locations")
    # a NaN fails every comparison, so it breaks every rule
    if counts:
        ok, rule = values >= 1, "be >= 1"
    else:
        ok, rule = (values > 0.0) & (values < math.inf), "be positive and finite"
    if np.count_nonzero(ok) < ok.size:  # cheaper than ok.all() on a few atoms
        raise DomainError(f"{what}: {name} must {rule}, got {values[~ok][0]}")
    ok = (locations >= 0.0) & (locations < 1.0)
    if np.count_nonzero(ok) < ok.size:
        raise DomainError(f"{what}: locations must lie in [0, 1), got {locations[~ok][0]}")
    return values, locations


class _ColumnMeasure:
    """A measure held in columns: immutable, equal field by field (arrays by
    value), and pickled as its class called with its fields, which the
    constructor takes in ``__slots__`` order."""

    __slots__ = ()

    def _fill(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._fields(), other._fields())
        )

    __hash__ = None

    def __reduce__(self):
        return type(self), self._fields()


class TraitMeasure(_ColumnMeasure):
    """A finite discrete measure with positive real weights.

    ``fixed_atoms`` are the atoms at the model's fixed locations (kept apart
    because their weights follow different laws than ordinary atoms);
    ``ordinary_atoms`` come from the ordinary component. All locations,
    across both groups, are pairwise distinct.

    The measure is stored as four read-only arrays (``fixed_weights``,
    ``fixed_locations``, ``ordinary_weights``, ``ordinary_locations``),
    validated once at construction; :class:`Atom` views are built only
    when ``fixed_atoms``, ``ordinary_atoms`` or ``atoms`` is read.
    The constructor takes the four arrays, then ``truncation``.
    """

    __slots__ = (
        "fixed_weights",
        "fixed_locations",
        "ordinary_weights",
        "ordinary_locations",
        "truncation",
    )

    def __init__(
        self,
        fixed_weights,
        fixed_locations,
        ordinary_weights,
        ordinary_locations,
        truncation: TruncationMeta = EXACT_FINITE,
    ):
        fw, fl = _atom_columns("fixed atoms", fixed_weights, fixed_locations)
        ow, ol = _atom_columns("ordinary atoms", ordinary_weights, ordinary_locations)
        locations = fl.tolist() + ol.tolist()
        if len(set(locations)) != len(locations):
            raise DomainError("trait measure atoms must sit at pairwise distinct locations")
        if not isinstance(truncation, TruncationMeta):
            raise DomainError("truncation must be a TruncationMeta")
        self._fill(fw, fl, ow, ol, truncation)

    def __repr__(self) -> str:
        return (
            f"TraitMeasure({self.fixed_weights.size} fixed, "
            f"{self.ordinary_weights.size} ordinary, {self.truncation!r})"
        )

    @property
    def fixed_atoms(self) -> tuple[Atom, ...]:
        return _atoms(Atom, self.fixed_weights, self.fixed_locations)

    @property
    def ordinary_atoms(self) -> tuple[Atom, ...]:
        return _atoms(Atom, self.ordinary_weights, self.ordinary_locations)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.fixed_atoms + self.ordinary_atoms

    def total_mass(self) -> float:
        return float(sum(self.fixed_weights.tolist() + self.ordinary_weights.tolist()))


def _atoms(kind: type, values: np.ndarray, locations: np.ndarray) -> tuple:
    return tuple(kind(w, Location(v)) for w, v in zip(values.tolist(), locations.tolist()))


class ObservationMeasure(_ColumnMeasure):
    """Integer-count data: read-only ``counts`` (int64, >= 1) at pairwise
    distinct ``locations`` (float64, in [0, 1)), built from those two
    columns and checked once; :class:`ObservationAtom` views are built
    only when ``atoms`` is read."""

    __slots__ = ("counts", "locations")

    def __init__(self, counts, locations):
        counts, locations = _atom_columns("observation atoms", counts, locations, counts=True)
        if len(set(locations.tolist())) != locations.size:
            raise DomainError("observation atoms must sit at pairwise distinct locations")
        self._fill(counts, locations)

    def __repr__(self) -> str:
        return f"ObservationMeasure({self.counts.tolist()} at {self.locations.tolist()})"

    @property
    def atoms(self) -> tuple[ObservationAtom, ...]:
        return _atoms(ObservationAtom, self.counts, self.locations)

    def count_at(self, location: Location) -> int:
        """Count at ``location``; zero when the location is untouched."""
        value = location.value if isinstance(location, Location) else Location(location).value
        hit = np.flatnonzero(self.locations == value)
        return int(self.counts[hit[0]]) if hit.size else 0

    def total_count(self) -> int:
        return int(self.counts.sum())


# --- JSON round-trip -------------------------------------------------------
#
# Floats travel as repr-exact decimal strings: 17 significant digits are
# enough to reconstruct any double bit-for-bit.  Each line type has a dict
# writer for library callers (``trait_to_jsonable`` or
# ``observation_to_jsonable``, then ``jsonl_line``) and a ``%.17g`` template
# writer for the CLI (``trait_jsonl_line``, ``observation_jsonl_line``);
# tests/test_measures.py pins each pair to the same bytes.  The readers
# gather each field into one list and build the measure from those columns.


def float_repr(x: float) -> str:
    return format(float(x), ".17g")


def _parse_floats(items: list, what: str, key: str) -> list[float]:
    """Each item, a number or numeric string, as a float."""
    out = []
    for i, s in enumerate(items):
        if isinstance(s, bool) or not isinstance(s, (str, int, float)):
            raise ConfigError(f"{what}[{i}].{key}: expected a number or numeric string, got {s!r}")
        try:
            out.append(float(s))
        except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond the doubles
            raise ConfigError(f"{what}[{i}].{key}: cannot parse float from {s!r}") from exc
    return out


def _record_columns(rows, keys: tuple[str, str], what: str) -> tuple[list, list]:
    """The values under each of ``keys`` across the atom records ``rows``."""
    if not isinstance(rows, list):
        raise ConfigError(f"{what} must be a list of atom records, got {type(rows).__name__}")
    try:
        return [row[keys[0]] for row in rows], [row[keys[1]] for row in rows]
    except (KeyError, TypeError):
        i = next(i for i, row in enumerate(rows)
                 if not (isinstance(row, dict) and set(keys) <= row.keys()))
        raise ConfigError(f"{what}[{i}]: malformed atom record") from None


def _atom_records(weights: np.ndarray, locations: np.ndarray) -> list[dict]:
    return [
        {"w": float_repr(w), "loc": float_repr(v)}
        for w, v in zip(weights.tolist(), locations.tolist())
    ]


def _trunc_record(truncation: TruncationMeta) -> dict:
    trunc: dict = {"kind": truncation.kind}
    if truncation.kind == "truncated":
        trunc["rounds"] = truncation.rounds
        trunc["count_cap"] = truncation.count_cap
    return trunc


def trait_to_jsonable(measure: TraitMeasure) -> dict:
    return {
        "fixed": _atom_records(measure.fixed_weights, measure.fixed_locations),
        "ordinary": _atom_records(measure.ordinary_weights, measure.ordinary_locations),
        "trunc": _trunc_record(measure.truncation),
    }


def _interleaved(a: np.ndarray, b: np.ndarray) -> list:
    """``[a[0], b[0], a[1], b[1], ...]`` as Python numbers."""
    flat = [0] * (2 * a.size)
    flat[0::2] = a.tolist()
    flat[1::2] = b.tolist()
    return flat


_ATOM_TEMPLATE = '{"w":"%.17g","loc":"%.17g"}'


def trait_jsonl_line(rep: int, measure: TraitMeasure) -> str:
    """``jsonl_line({"rep": rep, **trait_to_jsonable(measure)})``, byte for byte.

    The weights and locations of both groups are interleaved into one
    float list and written by a single ``%`` fill of a template built for
    this measure's atom counts; no per-atom record is made.
    """
    flat = _interleaved(
        np.concatenate([measure.fixed_weights, measure.ordinary_weights]),
        np.concatenate([measure.fixed_locations, measure.ordinary_locations]),
    )
    template = (
        '{"rep":%d,"fixed":['
        + ",".join([_ATOM_TEMPLATE] * measure.fixed_weights.size)
        + '],"ordinary":['
        + ",".join([_ATOM_TEMPLATE] * measure.ordinary_weights.size)
        + '],"trunc":%s}\n'
    )
    trunc = json.dumps(_trunc_record(measure.truncation), separators=(",", ":"))
    return template % (rep, *flat, trunc)


def trait_from_jsonable(data: dict) -> TraitMeasure:
    try:
        trunc_data = data["trunc"]
        fixed = data["fixed"]
        ordinary = data["ordinary"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"trait measure record missing field: {exc}") from exc
    if not isinstance(trunc_data, dict):
        raise ConfigError(f"trait measure record: trunc must be an object, got {trunc_data!r}")
    for key in ("rounds", "count_cap"):
        if trunc_data.get(key) is not None and type(trunc_data[key]) is not int:
            raise ConfigError(f"trunc.{key} must be an integer, got {trunc_data[key]!r}")
    trunc = TruncationMeta(
        trunc_data.get("kind", "exact-finite"),
        trunc_data.get("rounds"),
        trunc_data.get("count_cap"),
    )

    def columns(rows, name):
        weights, locations = _record_columns(rows, ("w", "loc"), name)
        return _parse_floats(weights, name, "w"), _parse_floats(locations, name, "loc")

    return TraitMeasure(*columns(fixed, "fixed"), *columns(ordinary, "ordinary"), trunc)


def observation_to_jsonable(observation: ObservationMeasure) -> dict:
    return {
        "atoms": [
            {"x": c, "loc": float_repr(v)}
            for c, v in zip(observation.counts.tolist(), observation.locations.tolist())
        ]
    }


_COUNT_TEMPLATE = '{"x":%d,"loc":"%.17g"}'


def observation_jsonl_line(rep: int, n: int, counts: np.ndarray, values: np.ndarray) -> str:
    """``jsonl_line({"rep": rep, "n": n, **observation_to_jsonable(obs)})``, byte for byte.

    ``obs`` is the observation with ``counts`` (positive integers) at the
    locations ``values``, in that order; one ``%`` fill writes the line.
    """
    template = '{"rep":%d,"n":%d,"atoms":[' + ",".join([_COUNT_TEMPLATE] * counts.size) + "]}\n"
    return template % (rep, n, *_interleaved(counts, values))


def observation_from_jsonable(data: dict) -> ObservationMeasure:
    try:
        rows = data["atoms"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("observation record must carry an 'atoms' list") from exc
    counts, locations = _record_columns(rows, ("x", "loc"), "atoms")
    if not set(map(type, counts)) <= {int}:
        i, x = next((i, x) for i, x in enumerate(counts) if type(x) is not int)
        raise ConfigError(f"atoms[{i}].x: count must be an integer, got {x!r}")
    return ObservationMeasure(counts, _parse_floats(locations, "atoms", "loc"))


def jsonl_line(record: dict) -> str:
    """One JSONL line for ``record``, newline included; keys in insertion order."""
    return json.dumps(record, separators=(",", ":")) + "\n"


def write_jsonl(path, records: Iterable[dict]) -> None:
    """Write one JSON object per line. Key order is the insertion order."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(jsonl_line(record))


def read_jsonl(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
    return records
