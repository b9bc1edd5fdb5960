"""Atomic measure types and their JSON round-trip.

Two kinds of measures appear throughout: trait measures (positive real
weights at distinct locations, the latent object) and observation measures
(positive integer counts at distinct locations, the data). Locations live on
the unit interval ``[0, 1)``; only their identity matters, the geometry never
enters any formula.

Serialization writes every float as a 17-significant-digit decimal string, so
a dump/load cycle reproduces the exact same doubles and byte-identical files
can be diffed across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DomainError


def _check_float(name: str, value, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    x = float(value)
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
            if self.rounds is None or int(self.rounds) < 1:
                raise DomainError(f"truncated measures need rounds >= 1, got {self.rounds}")
            if self.count_cap is None or int(self.count_cap) < 1:
                raise DomainError(f"truncated measures need count_cap >= 1, got {self.count_cap}")
            object.__setattr__(self, "rounds", int(self.rounds))
            object.__setattr__(self, "count_cap", int(self.count_cap))
        elif self.rounds is not None or self.count_cap is not None:
            raise DomainError("exact-finite measures carry no rounds/count_cap")


EXACT_FINITE = TruncationMeta("exact-finite")


def _require_distinct(locations: Iterable[Location], what: str) -> None:
    values = [loc.value for loc in locations]
    if len(set(values)) != len(values):
        raise DomainError(f"{what} must sit at pairwise distinct locations")


def _atom_columns(what: str, weights, locations) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 copies of one group's weights and locations, checked."""
    out = []
    for values in (weights, locations):
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.dtype.kind not in "fiu":
            raise DomainError(f"{what}: expected one-dimensional arrays of real numbers")
        arr = arr.astype(float)
        arr.flags.writeable = False
        out.append(arr)
    weights, locations = out
    if weights.size != locations.size:
        raise DomainError(f"{what}: {weights.size} weights but {locations.size} locations")
    # min and max carry a NaN through, and a NaN fails every comparison
    if weights.size and not (weights.min() > 0.0 and weights.max() < math.inf):
        raise DomainError(f"{what}: weights must be positive and finite")
    if locations.size and not (locations.min() >= 0.0 and locations.max() < 1.0):
        raise DomainError(f"{what}: locations must lie in [0, 1)")
    return weights, locations


class TraitMeasure:
    """A finite discrete measure with positive real weights.

    ``fixed_atoms`` are the atoms at the model's fixed locations (kept apart
    because their weights follow different laws than ordinary atoms);
    ``ordinary_atoms`` come from the ordinary component. All locations,
    across both groups, are pairwise distinct.

    The measure is stored as four read-only arrays (``fixed_weights``,
    ``fixed_locations``, ``ordinary_weights``, ``ordinary_locations``),
    validated once at construction; :class:`Atom` views are built only
    when ``fixed_atoms``, ``ordinary_atoms`` or ``atoms`` is read.
    Samplers build measures with :meth:`from_arrays`.
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
        fixed_atoms: Sequence[Atom] = (),
        ordinary_atoms: Sequence[Atom] = (),
        truncation: TruncationMeta = EXACT_FINITE,
    ):
        fixed, ordinary = tuple(fixed_atoms), tuple(ordinary_atoms)
        for a in fixed + ordinary:
            if not isinstance(a, Atom):
                raise DomainError(f"atoms must be Atom instances, got {type(a).__name__}")
        self._init(
            [a.weight for a in fixed],
            [a.location.value for a in fixed],
            [a.weight for a in ordinary],
            [a.location.value for a in ordinary],
            truncation,
        )

    @classmethod
    def from_arrays(
        cls,
        fixed_weights,
        fixed_locations,
        ordinary_weights,
        ordinary_locations,
        truncation: TruncationMeta = EXACT_FINITE,
    ) -> "TraitMeasure":
        """Measure from aligned weight and location arrays of each group."""
        measure = cls.__new__(cls)
        measure._init(
            fixed_weights, fixed_locations, ordinary_weights, ordinary_locations, truncation
        )
        return measure

    def _init(self, fw, fl, ow, ol, truncation) -> None:
        fw, fl = _atom_columns("fixed atoms", fw, fl)
        ow, ol = _atom_columns("ordinary atoms", ow, ol)
        locations = fl.tolist() + ol.tolist()
        if len(set(locations)) != len(locations):
            raise DomainError("trait measure atoms must sit at pairwise distinct locations")
        if not isinstance(truncation, TruncationMeta):
            raise DomainError("truncation must be a TruncationMeta")
        for name, value in zip(self.__slots__, (fw, fl, ow, ol, truncation)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"TraitMeasure is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, TraitMeasure):
            return NotImplemented
        return self.truncation == other.truncation and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__[:4]
        )

    __hash__ = None

    def __reduce__(self):
        return (
            TraitMeasure.from_arrays,
            tuple(getattr(self, name) for name in self.__slots__),
        )

    def __repr__(self) -> str:
        return (
            f"TraitMeasure({self.fixed_weights.size} fixed, "
            f"{self.ordinary_weights.size} ordinary, {self.truncation!r})"
        )

    @property
    def fixed_atoms(self) -> tuple[Atom, ...]:
        return _atoms(self.fixed_weights, self.fixed_locations)

    @property
    def ordinary_atoms(self) -> tuple[Atom, ...]:
        return _atoms(self.ordinary_weights, self.ordinary_locations)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.fixed_atoms + self.ordinary_atoms

    def total_mass(self) -> float:
        return float(sum(self.fixed_weights.tolist() + self.ordinary_weights.tolist()))


def _atoms(weights: np.ndarray, locations: np.ndarray) -> tuple[Atom, ...]:
    return tuple(Atom(w, Location(v)) for w, v in zip(weights.tolist(), locations.tolist()))


@dataclass(frozen=True, slots=True)
class ObservationMeasure:
    """Integer-count data: one count >= 1 per touched location."""

    atoms: tuple[ObservationAtom, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for a in self.atoms:
            if not isinstance(a, ObservationAtom):
                raise DomainError(
                    f"observation atoms must be ObservationAtom instances, got {type(a).__name__}"
                )
        _require_distinct([a.location for a in self.atoms], "observation atoms")

    def count_at(self, location: Location) -> int:
        """Count at ``location``; zero when the location is untouched."""
        return count_at(self, location)

    def total_count(self) -> int:
        return sum(a.count for a in self.atoms)


def count_at(observation: ObservationMeasure, location: Location) -> int:
    """Count of ``observation`` at ``location`` (0 when absent)."""
    if not isinstance(location, Location):
        location = Location(location)
    for a in observation.atoms:
        if a.location.value == location.value:
            return a.count
    return 0


def merge_locations(observations: Sequence[ObservationMeasure]) -> tuple[Location, ...]:
    """Sorted union of the locations touched by the given observations.

    Sorted ascending by float value; a location shared by several
    observations appears once.
    """
    values = sorted({a.location.value for obs in observations for a in obs.atoms})
    return tuple(Location(v) for v in values)


# --- JSON round-trip -------------------------------------------------------
#
# Floats travel as repr-exact decimal strings: 17 significant digits are
# enough to reconstruct any double bit-for-bit.  A trait line is written by
# two serializers: ``trait_to_jsonable`` plus ``jsonl_line`` for library
# callers, and ``trait_jsonl_line``, which fills one ``%.17g`` template from
# the measure's columns, for the CLI.  ``test_trait_line_matches_dict_path``
# in tests/test_measures.py pins the two to the same bytes; observation lines
# have the same pair (``observation_to_jsonable`` and
# ``observation_jsonl_line``), pinned by tests/test_marginal.py.


def float_repr(x: float) -> str:
    return format(float(x), ".17g")


def _parse_float(s, name: str) -> float:
    if isinstance(s, str):
        try:
            return float(s)
        except ValueError as exc:
            raise ConfigError(f"{name}: cannot parse float from {s!r}") from exc
    if isinstance(s, bool) or not isinstance(s, (int, float)):
        raise ConfigError(f"{name}: expected a number or numeric string, got {s!r}")
    return float(s)


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
    trunc = TruncationMeta(
        trunc_data.get("kind", "exact-finite"),
        trunc_data.get("rounds"),
        trunc_data.get("count_cap"),
    )

    def columns(rows, name):
        weights, locations = [], []
        for i, row in enumerate(rows):
            try:
                weights.append(_parse_float(row["w"], f"{name}[{i}].w"))
                locations.append(_parse_float(row["loc"], f"{name}[{i}].loc"))
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"{name}[{i}]: malformed atom record") from exc
        return weights, locations

    return TraitMeasure.from_arrays(
        *columns(fixed, "fixed"), *columns(ordinary, "ordinary"), trunc
    )


def observation_to_jsonable(observation: ObservationMeasure) -> dict:
    return {
        "atoms": [
            {"x": a.count, "loc": float_repr(a.location.value)} for a in observation.atoms
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
    atoms = []
    for i, row in enumerate(rows):
        try:
            x = row["x"]
            loc = _parse_float(row["loc"], f"atoms[{i}].loc")
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"atoms[{i}]: malformed observation atom") from exc
        if isinstance(x, bool) or not isinstance(x, int):
            raise ConfigError(f"atoms[{i}].x: count must be an integer, got {x!r}")
        atoms.append(ObservationAtom(x, Location(loc)))
    return ObservationMeasure(tuple(atoms))


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
