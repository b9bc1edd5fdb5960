import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expcrm.errors import ConfigError, DomainError
from expcrm.measures import (
    EXACT_FINITE,
    Atom,
    Location,
    ObservationAtom,
    ObservationMeasure,
    TraitMeasure,
    TruncationMeta,
    float_repr,
    jsonl_line,
    observation_from_jsonable,
    observation_jsonl_line,
    observation_to_jsonable,
    read_jsonl,
    trait_from_jsonable,
    trait_jsonl_line,
    trait_to_jsonable,
    write_jsonl,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
locations = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
weights = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)


class TestLocation:
    def test_accepts_unit_interval(self):
        assert Location(0.0).value == 0.0
        assert Location(0.75).value == 0.75
        assert Location(np.float64(0.25)).value == 0.25

    @pytest.mark.parametrize("bad", [1.0, -0.1, 2.0, math.nan, math.inf])
    def test_rejects_outside(self, bad):
        with pytest.raises(DomainError):
            Location(bad)

    def test_rejects_non_numbers(self):
        with pytest.raises(DomainError):
            Location("0.5")
        with pytest.raises(DomainError):
            Location(True)

    def test_an_integer_too_large_for_a_float_raises_domain_error(self):
        from expcrm.catalog import get_entry

        with pytest.raises(DomainError, match="location must be finite"):
            Location(10**400)
        with pytest.raises(DomainError, match="shape r must be finite"):
            get_entry("negative_binomial", 10**400)

    def test_equality_is_by_value(self):
        assert Location(0.5) == Location(0.5)
        assert Location(0.5) != Location(0.25)
        assert len({Location(0.5), Location(0.5)}) == 1


class TestAtom:
    def test_coerces_raw_location(self):
        a = Atom(2.0, 0.5)
        assert a.location == Location(0.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_weight(self, bad):
        with pytest.raises(DomainError):
            Atom(bad, Location(0.5))

    def test_observation_atom_integer_counts(self):
        assert ObservationAtom(3, 0.1).count == 3
        assert ObservationAtom(np.int64(2), 0.1).count == 2
        with pytest.raises(DomainError):
            ObservationAtom(0, 0.1)
        with pytest.raises(DomainError):
            ObservationAtom(1.5, 0.1)
        with pytest.raises(DomainError):
            ObservationAtom(True, 0.1)


class TestTruncationMeta:
    def test_exact_finite_carries_nothing(self):
        assert EXACT_FINITE.kind == "exact-finite"
        assert EXACT_FINITE.rounds is None and EXACT_FINITE.count_cap is None
        with pytest.raises(DomainError):
            TruncationMeta("exact-finite", rounds=3)

    def test_truncated_needs_both_caps(self):
        t = TruncationMeta("truncated", rounds=100, count_cap=50)
        assert (t.rounds, t.count_cap) == (100, 50)
        with pytest.raises(DomainError):
            TruncationMeta("truncated", rounds=100)
        with pytest.raises(DomainError):
            TruncationMeta("truncated", count_cap=50)
        with pytest.raises(DomainError):
            TruncationMeta("truncated", rounds=0, count_cap=50)

    @pytest.mark.parametrize(
        "rounds, count_cap", [(2.7, 50), (100, 50.0), (True, 50), ("3", 50), (100, None)]
    )
    def test_truncated_caps_are_integers(self, rounds, count_cap):
        # a float cap is refused, not truncated to an integer
        with pytest.raises(DomainError, match="integer"):
            TruncationMeta("truncated", rounds=rounds, count_cap=count_cap)

    def test_numpy_integer_caps_become_ints(self):
        t = TruncationMeta("truncated", rounds=np.int64(100), count_cap=np.int32(50))
        assert (type(t.rounds), type(t.count_cap)) == (int, int)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            TruncationMeta("lossy")


class TestTraitMeasure:
    def test_atoms_keeps_group_order(self):
        m = TraitMeasure([1.0, 2.0], [0.1, 0.2], [3.0], [0.3])
        assert m.atoms == (Atom(1.0, 0.1), Atom(2.0, 0.2), Atom(3.0, 0.3))
        assert m.total_mass() == pytest.approx(6.0)
        assert m.truncation is EXACT_FINITE

    def test_distinct_locations_across_groups(self):
        with pytest.raises(DomainError):
            TraitMeasure([1.0], [0.1], [2.0], [0.1])
        with pytest.raises(DomainError):
            TraitMeasure([1.0, 2.0], [0.1, 0.1], [], [])

    def test_rejects_foreign_atoms(self):
        with pytest.raises(DomainError):
            TraitMeasure([Atom(1.0, 0.1)], [0.1], [], [])
        with pytest.raises(DomainError):
            TraitMeasure([(1.0, 0.1)], [0.1], [], [])
        with pytest.raises(DomainError):
            TraitMeasure([], [], [], [], truncation="truncated")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TraitMeasure((Atom(1.0, 0.5),), ()),
            lambda: ObservationMeasure((ObservationAtom(1, 0.5),)),
            lambda: TraitMeasure(),
        ],
        ids=["trait-atom-lists", "observation-atom-list", "trait-no-columns"],
    )
    def test_the_constructor_takes_only_columns(self, build):
        with pytest.raises(TypeError):
            build()

    def test_empty_measure_is_fine(self):
        m = TraitMeasure([], [], [], [])
        assert m.atoms == ()
        assert m.total_mass() == 0.0


class TestColumnarTraitMeasure:
    def test_arrays_and_atom_views_agree(self):
        m = TraitMeasure([1.5], [0.5], np.array([0.25, 2.0]), np.array([0.75, 0.0]))
        assert m == TraitMeasure(np.array([1.5]), np.array([0.5]), [0.25, 2.0], [0.75, 0.0])
        assert m.fixed_atoms == (Atom(1.5, 0.5),)
        assert m.ordinary_atoms == (Atom(0.25, 0.75), Atom(2.0, 0.0))
        assert m.ordinary_weights.tolist() == [0.25, 2.0]
        assert m.total_mass() == 3.75
        assert pickle.loads(pickle.dumps(m)) == m

    def test_arrays_are_copied_and_read_only(self):
        weights = np.array([1.0, 2.0])
        m = TraitMeasure([], [], weights, [0.1, 0.2])
        weights[0] = 9.0
        assert m.ordinary_weights[0] == 1.0
        with pytest.raises(ValueError):
            m.ordinary_weights[0] = 3.0
        with pytest.raises(AttributeError):
            m.truncation = EXACT_FINITE

    @pytest.mark.parametrize(
        "fw, fl, ow, ol",
        [
            ([], [], [0.0], [0.5]),
            ([], [], [-1.0], [0.5]),
            ([], [], [math.inf], [0.5]),
            ([math.nan], [0.5], [], []),
            ([], [], [1.0], [1.0]),
            ([], [], [1.0], [-0.25]),
            ([], [], [1.0], [math.nan]),
            ([1.0], [0.5], [2.0], [0.5]),
            ([], [], [1.0, 2.0], [0.3, 0.3]),
            ([], [], [1.0, 2.0], [0.3]),
            ([], [], ["1.0"], [0.3]),
            ([], [], [True], [0.3]),
            ([], [], [[1.0]], [[0.3]]),
        ],
    )
    def test_invalid_columns_raise_domain_error(self, fw, fl, ow, ol):
        with pytest.raises(DomainError):
            TraitMeasure(fw, fl, ow, ol)

    def test_truncation_must_be_meta(self):
        with pytest.raises(DomainError):
            TraitMeasure([], [], [1.0], [0.5], truncation="truncated")

    def test_json_round_trip_from_arrays(self):
        rng = np.random.default_rng(7)
        m = TraitMeasure(
            rng.gamma(0.3, size=2),
            [0.125, 0.875],
            rng.gamma(0.3, size=50),
            rng.uniform(0.2, 0.8, size=50),
            TruncationMeta("truncated", rounds=100, count_cap=20),
        )
        wire = json.loads(json.dumps(trait_to_jsonable(m)))
        assert trait_from_jsonable(wire) == m


class TestObservationMeasure:
    def test_count_lookup(self):
        obs = ObservationMeasure([2, 5], [0.3, 0.7])
        assert obs.count_at(Location(0.3)) == 2
        assert obs.count_at(Location(0.5)) == 0
        assert obs.count_at(0.7) == 5
        assert obs.total_count() == 7

    def test_duplicate_locations_rejected(self):
        with pytest.raises(DomainError):
            ObservationMeasure([1, 2], [0.3, 0.3])

    def test_empty_observation(self):
        obs = ObservationMeasure([], [])
        assert obs.total_count() == 0
        assert obs.count_at(Location(0.1)) == 0
        assert obs == ObservationMeasure(np.array([], dtype=np.int64), np.array([]))


class TestColumnarObservationMeasure:
    def test_arrays_and_atom_views_agree(self):
        obs = ObservationMeasure(np.array([3, 1]), [0.25, 0.0])
        assert obs == ObservationMeasure([3, 1], np.array([0.25, 0.0]))
        assert obs.atoms == (ObservationAtom(3, Location(0.25)), ObservationAtom(1, Location(0.0)))
        assert obs.counts.dtype == np.int64 and obs.locations.dtype == np.float64
        assert obs != ObservationMeasure([3, 2], [0.25, 0.0])
        assert obs != TraitMeasure([], [], [3.0, 1.0], [0.25, 0.0])

    def test_arrays_are_copied_and_read_only(self):
        counts, locations = np.array([1, 2]), np.array([0.1, 0.2])
        obs = ObservationMeasure(counts, locations)
        counts[0], locations[0] = 9, 0.9
        assert obs.counts.tolist() == [1, 2] and obs.locations.tolist() == [0.1, 0.2]
        with pytest.raises(ValueError):
            obs.counts[0] = 3
        with pytest.raises(ValueError):
            obs.locations[0] = 0.5
        with pytest.raises(AttributeError):
            obs.counts = np.array([1, 1])

    def test_pickle_round_trip(self):
        obs = ObservationMeasure([4, 1, 10**12], [0.5, 5e-324, 0.9999999999999999])
        again = pickle.loads(pickle.dumps(obs))
        assert again == obs
        assert again.counts.dtype == np.int64 and not again.counts.flags.writeable

    def test_unhashable_like_trait_measures(self):
        with pytest.raises(TypeError):
            hash(ObservationMeasure([1], [0.5]))

    @pytest.mark.parametrize(
        "counts, locations",
        [
            ([0], [0.5]),
            ([-3], [0.5]),
            ([1.5], [0.5]),
            ([1.0], [0.5]),
            ([True], [0.5]),
            (["1"], [0.5]),
            ([10**20], [0.5]),
            ([1], [1.0]),
            ([1], [1.5]),
            ([1], [-0.25]),
            ([1], [math.nan]),
            ([1], [math.inf]),
            ([1, 2], [0.3, 0.3]),
            ([1, 2], [0.3]),
            ([[1]], [[0.3]]),
        ],
    )
    def test_invalid_columns_raise_domain_error(self, counts, locations):
        with pytest.raises(DomainError):
            ObservationMeasure(counts, locations)


@given(finite_floats)
def test_float_repr_round_trips_doubles(x):
    assert float(float_repr(x)) == x


def trait_measures():
    atoms = st.lists(
        st.tuples(weights, locations), max_size=6,
        unique_by=lambda t: t[1],
    )
    def build(pairs, split, trunc):
        w, loc = [w for w, _ in pairs], [v for _, v in pairs]
        k = split % (len(pairs) + 1)
        return TraitMeasure(w[:k], loc[:k], w[k:], loc[k:], trunc)
    truncs = st.one_of(
        st.just(EXACT_FINITE),
        st.builds(
            TruncationMeta,
            st.just("truncated"),
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=10**6),
        ),
    )
    return st.builds(build, atoms, st.integers(min_value=0), truncs)


@settings(max_examples=50)
@given(trait_measures())
def test_trait_json_round_trip_exact(measure):
    wire = json.loads(json.dumps(trait_to_jsonable(measure)))
    assert trait_from_jsonable(wire) == measure


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=10**9), locations),
        max_size=6,
        unique_by=lambda t: t[1],
    )
)
def test_observation_json_round_trip_exact(pairs):
    obs = ObservationMeasure([c for c, _ in pairs], [v for _, v in pairs])
    wire = json.loads(json.dumps(observation_to_jsonable(obs)))
    assert observation_from_jsonable(wire) == obs


# the columnar serializers against the dict path: subnormals, the ends of
# the double range, -0.0 and integral floats, empty groups, both truncations
edge_weights = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308,
                     1.0, 2.0, 3.0, 1e16, 1e22]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False),
)
edge_locations = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 0.9999999999999999]), locations
)
truncations = st.one_of(
    st.just(EXACT_FINITE),
    st.builds(
        TruncationMeta,
        st.just("truncated"),
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
    ),
)


@st.composite
def columnar_measures(draw):
    pairs = draw(
        st.lists(st.tuples(edge_weights, edge_locations), max_size=12, unique_by=lambda t: t[1])
    )
    k = draw(st.integers(min_value=0, max_value=len(pairs)))
    w = np.array([p[0] for p in pairs], dtype=float)
    loc = np.array([p[1] for p in pairs], dtype=float)
    return TraitMeasure(w[:k], loc[:k], w[k:], loc[k:], draw(truncations))


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**12), columnar_measures())
@example(0, TraitMeasure([], [], [], [], EXACT_FINITE))
@example(
    7,
    TraitMeasure(
        [5e-324, 1e300], [-0.0, 5e-324], [1e-300, 2.0, 1.7976931348623157e308],
        [0.25, 0.5, 0.9999999999999999], TruncationMeta("truncated", 1000, 50),
    ),
)
@example(3, TraitMeasure([1.0], [0.0], [], [], EXACT_FINITE))
@example(4, TraitMeasure([], [], [3.0, 1e22], [0.1, 0.2], TruncationMeta("truncated", 1, 1)))
def test_trait_line_matches_dict_path(rep, measure):
    line = trait_jsonl_line(rep, measure)
    assert line == jsonl_line({"rep": rep, **trait_to_jsonable(measure)})
    assert trait_from_jsonable(json.loads(line)) == measure


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=10**12), edge_locations),
        max_size=12,
        unique_by=lambda t: t[1],
    ),
)
@example(0, 1, [])
@example(2, 9, [(1, -0.0), (3, 5e-324), (10**12, 0.9999999999999999)])
def test_observation_line_matches_dict_path(rep, n, pairs):
    counts = np.array([c for c, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=float)
    obs = ObservationMeasure(counts, values)
    line = observation_jsonl_line(rep, n, counts, values)
    assert line == jsonl_line({"rep": rep, "n": n, **observation_to_jsonable(obs)})


def test_trait_jsonable_floats_are_strings():
    m = TraitMeasure([1.0 / 3.0], [0.1], [], [])
    data = trait_to_jsonable(m)
    assert data["fixed"][0]["w"] == float_repr(1.0 / 3.0)
    assert data["trunc"] == {"kind": "exact-finite"}


def test_trait_from_jsonable_accepts_plain_numbers():
    data = {"fixed": [], "ordinary": [{"w": 0.25, "loc": 0.5}], "trunc": {"kind": "exact-finite"}}
    m = trait_from_jsonable(data)
    assert m.ordinary_atoms[0] == Atom(0.25, 0.5)


@pytest.mark.parametrize(
    "data",
    [
        {"fixed": [], "ordinary": []},
        {"fixed": [{"w": "x", "loc": "0.1"}], "ordinary": [], "trunc": {"kind": "exact-finite"}},
        {"fixed": [{"w": "1.0"}], "ordinary": [], "trunc": {"kind": "exact-finite"}},
        {"fixed": None, "ordinary": [], "trunc": {"kind": "exact-finite"}},
        "not a dict",
        {"fixed": [], "ordinary": [], "trunc": ["truncated", 3, 5]},
        {"fixed": [], "ordinary": [], "trunc": "truncated"},
        {"fixed": [], "ordinary": [], "trunc": {"kind": "truncated", "rounds": "x", "count_cap": 5}},
        {"fixed": [], "ordinary": [], "trunc": {"kind": "truncated", "rounds": 2.7, "count_cap": 5}},
        {"fixed": [], "ordinary": [], "trunc": {"kind": "truncated", "rounds": 2.0, "count_cap": 5}},
        {"fixed": [], "ordinary": [], "trunc": {"kind": "truncated", "rounds": 3, "count_cap": True}},
        {"fixed": [], "ordinary": [], "trunc": {"kind": "truncated", "rounds": 3, "count_cap": [5]}},
    ],
)
def test_trait_from_jsonable_rejects_malformed(data):
    with pytest.raises(ConfigError):
        trait_from_jsonable(data)


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"atoms": [{"x": 1.5, "loc": "0.1"}]},
        {"atoms": [{"x": True, "loc": "0.1"}]},
        {"atoms": [{"loc": "0.1"}]},
        {"atoms": None},
        {"atoms": {}},
        {"atoms": ""},
    ],
)
def test_observation_from_jsonable_rejects_malformed(data):
    with pytest.raises(ConfigError):
        observation_from_jsonable(data)


@pytest.mark.parametrize("x", [2**63, 10**20, -(2**63) - 1])
@pytest.mark.parametrize("first", [[], [{"x": 1, "loc": "0.1"}]], ids=["alone", "after-a-count"])
def test_observation_count_past_int64_is_named(x, first):
    # at 2**63 the int64 cast wrapped it to -2**63, and past 2**64 it made an
    # object array, which read as a malformed record
    with pytest.raises(DomainError, match=f"counts must be integers in 1..{2**63 - 1}, got {x}$"):
        observation_from_jsonable({"atoms": first + [{"x": x, "loc": "0.5"}]})


def test_observation_count_at_the_int64_top_is_kept_and_an_unsigned_one_above_it_named():
    obs = observation_from_jsonable({"atoms": [{"x": 2**63 - 1, "loc": "0.5"}]})
    assert obs.counts.tolist() == [2**63 - 1]
    with pytest.raises(DomainError, match=f"got {2**63}$"):
        ObservationMeasure(np.array([3, 2**63], dtype=np.uint64), np.array([0.1, 0.5]))


class TestJsonl:
    def test_round_trip_and_byte_determinism(self, tmp_path):
        records = [{"a": 1, "b": float_repr(0.1)}, {"c": [1, 2, 3]}]
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        write_jsonl(p1, records)
        write_jsonl(p2, records)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_jsonl(p1) == records

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "blanks.jsonl"
        p.write_text('{"a":1}\n\n{"b":2}\n')
        assert read_jsonl(p) == [{"a": 1}, {"b": 2}]

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"a":1}\nnot json\n')
        with pytest.raises(ConfigError, match=r"bad\.jsonl:2"):
            read_jsonl(p)
