"""The stress reference tracks as one (levels x ways) table.

The oracle below is the earlier implementation, which held the table as
(level, track) pairs, scored each pair's squared distance with a Python
sum and kept the first strictly smaller one in level order. Every
comparison is exact: the matched level reaches the profiles, which must
not change.
"""

import re

import numpy as np
import pytest

from capsched.core import NodeConstants, SharedResource, canonical_json
from capsched.estimator import (
    ReferenceTracks,
    SimulatedProbe,
    build_profile,
    stress_reference_tracks,
)
from capsched.workload_synth import probe_for

CONSTANTS = NodeConstants()


# --- oracles: the pair-based code ----------------------------------------

def _old_distance(track, ref):
    if len(ref) != len(track):
        raise ValueError("tracks cover different way counts")
    return float(sum((a - b) ** 2 for a, b in zip(track, ref)))


def _old_match_pressure(track, pairs):
    best_level, best_dist = None, None
    for level, ref in sorted(pairs, key=lambda pair: pair[0]):
        d = _old_distance(track, ref)
        if best_dist is None or d < best_dist:
            best_level, best_dist = level, d
    return int(best_level)


def _old_stress_pairs(constants):
    w = constants.llc_ways
    shape = [1.0 + 0.08 * max(0.0, 8.0 - ways) for ways in range(1, w + 1)]
    return [(level, tuple(level * constants.kmps_per_level * s for s in shape))
            for level in range(constants.levels + 1)]


def _old_tracks_json(pairs):
    return {"schema": "reference-tracks/v1",
            "tracks": [{"level": level, "kmps": list(track)} for level, track in pairs]}


# --- differential --------------------------------------------------------

def _random_table(rng):
    """Random monotone rows with repeated rows and levels, in random order."""
    n, ways = int(rng.integers(1, 9)), int(rng.integers(1, 12))
    rows = np.sort(rng.uniform(0.0, 50.0, (n, ways)), axis=1)[:, ::-1]
    levels = rng.integers(0, 6, n)
    if n > 1:
        rows[int(rng.integers(n))] = rows[int(rng.integers(n))]
    return [(int(level), tuple(row.tolist())) for level, row in zip(levels, rows)]


def _tracks_near(pairs, rng, count):
    """Exact rows, exact midpoints of adjacent rows, and random tracks."""
    rows = [np.array(track) for _, track in sorted(pairs, key=lambda pair: pair[0])]
    ways = len(rows[0])
    out = []
    for _ in range(count):
        kind = int(rng.integers(4))
        i = int(rng.integers(len(rows)))
        if kind == 0:
            track = rows[i]
        elif kind == 1:
            track = (rows[i] + rows[min(i + 1, len(rows) - 1)]) / 2
        elif kind == 2:
            track = np.abs(rows[i] + rng.normal(0.0, 5.0, ways))
        else:
            track = rng.uniform(0.0, 60.0, ways)
        out.append(track.tolist())
    return out


def test_nearest_level_matches_the_pair_scan():
    rng = np.random.default_rng(2024)
    checked = 0
    default = _old_stress_pairs(CONSTANTS)
    tables = [default] + [_random_table(rng) for _ in range(2000)]
    for pairs in tables:
        table = ReferenceTracks(levels=tuple(level for level, _ in pairs),
                                kmps=[track for _, track in pairs])
        count = 20000 if pairs is default else 45
        for track in _tracks_near(pairs, rng, count):
            assert table.nearest_level(track) == _old_match_pressure(track, pairs)
            checked += 1
    # noisy readings of the default table's own stress programs
    noisy = [np.array(track) * np.exp(rng.normal(0.0, 0.05, CONSTANTS.llc_ways))
             for _, track in default for _ in range(100)]
    table = stress_reference_tracks(CONSTANTS)
    for track in noisy:
        track = track.tolist()
        assert table.nearest_level(track) == _old_match_pressure(track, default)
        checked += 1
    assert checked >= 100000


def test_stress_table_and_its_json_keep_the_pair_values():
    pairs = _old_stress_pairs(CONSTANTS)
    tracks = stress_reference_tracks(CONSTANTS)
    assert canonical_json(tracks.to_json()) == canonical_json(_old_tracks_json(pairs))
    small = NodeConstants(llc_ways=3, levels=2, kmps_per_level=7.3)
    assert (canonical_json(stress_reference_tracks(small).to_json())
            == canonical_json(_old_tracks_json(_old_stress_pairs(small))))


# --- construction, loading and refusal ------------------------------------

def test_table_is_a_read_only_sorted_copy():
    rows = np.array([[3.0, 1.0], [1.0, 0.5]])
    table = ReferenceTracks(levels=(4, 2), kmps=rows)
    rows[0, 0] = 99.0
    assert table.levels == (2, 4)
    assert table.kmps.tolist() == [[1.0, 0.5], [3.0, 1.0]]
    with pytest.raises(ValueError):
        table.kmps[0, 0] = 0.0


@pytest.mark.parametrize("levels, kmps, message", [
    ((), [], "list no levels"),
    ((0, 1), [[1.0]], "need kmps of shape (2, ways)"),
    ((0,), [[]], "need kmps of shape (1, ways)"),
    ((0,), [1.0], "need kmps of shape (1, ways)"),
    ((-1, 0), [[1.0], [0.0]], "levels must be non-negative, got -1"),
    ((0, 1), [[1.0, 1.0], [np.nan, 0.0]], "level 1 must be finite"),
    ((0,), [[np.inf, 1.0]], "level 0 must be finite"),
    ((0,), [[1.0, -1.0]], "level 0 must be finite, non-negative"),
    ((3, 2), [[1.0, 2.0], [1.0, 1.0]], "level 3 must be finite, non-negative and "
                                       "non-increasing"),
])
def test_table_rejects_a_bad_row_naming_it(levels, kmps, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ReferenceTracks(levels=levels, kmps=kmps)


def test_rows_may_stay_flat_within_the_tolerance():
    ReferenceTracks(levels=(0,), kmps=[[1.0, 1.0 + 1e-10]])


@pytest.mark.parametrize("track, message", [
    ([1.0], r"track has shape \(1,\), the reference tracks cover 2 ways"),
    ([1.0, float("nan")], "kmps must be finite non-negative"),
    ([1.0, -0.5], "kmps must be finite non-negative"),
])
def test_nearest_level_rejects_a_bad_reading(track, message):
    table = ReferenceTracks(levels=(0,), kmps=[[2.0, 1.0]])
    with pytest.raises(ValueError, match=message):
        table.nearest_level(track)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["tracks"][2]["kmps"].__setitem__(0, float("nan")),
     "f: tracks.tracks[2].kmps[0] needs a finite number, got NaN"),
    (lambda d: d["tracks"][2].update(level=1.5), "f: tracks.tracks[2].level needs an integer"),
    (lambda d: d["tracks"][4]["kmps"].__setitem__(10, 1e9),
     "f: tracks: kmps of level 4 must be finite, non-negative and non-increasing"),
])
def test_from_json_names_where_the_fault_is(edit, message):
    doc = stress_reference_tracks(CONSTANTS).to_json()
    edit(doc)
    with pytest.raises(ValueError) as info:
        ReferenceTracks.from_json(doc, "f: tracks")
    assert str(info.value).startswith(message)


class _CountingProbe(SimulatedProbe):
    calls = 0

    def set_llc_ways(self, ways):
        self.calls += 1
        return super().set_llc_ways(ways)

    def apply_stress(self, resource, level, rows=None):
        self.calls += 1
        return super().apply_stress(resource, level, rows)


def test_build_profile_refuses_another_way_count_before_probing(default_wset):
    w = default_wset.workloads[0]
    probe = _CountingProbe(CONSTANTS, [w.params.footprint])
    short = stress_reference_tracks(NodeConstants(llc_ways=CONSTANTS.llc_ways - 1))
    with pytest.raises(ValueError, match="cover 10 ways, the probe's node has 11"):
        build_profile(probe, short)
    assert probe.calls == 0


def test_noisy_probes_profile_every_default_workload(default_wset):
    # Noisy kmps readings need not fall as ways grow; they still profile.
    tracks = stress_reference_tracks(default_wset.constants)
    workloads = default_wset.workloads
    specs = [w.origin_spec for w in workloads]
    clean = build_profile(probe_for(workloads, specs, default_wset.constants), tracks)
    noisy = [build_profile(probe_for(workloads, specs, default_wset.constants,
                                     noise_sigma=0.05, seeds=[w.noise_seed for w in workloads]),
                           tracks)
             for _ in range(2)]
    assert noisy[0] == noisy[1]
    clean_llc = [p.get(SharedResource.LLC).pressure for p in clean]
    noisy_llc = [p.get(SharedResource.LLC).pressure for p in noisy[0]]
    assert len(clean_llc) == len(workloads)
    assert max(abs(a - b) for a, b in zip(clean_llc, noisy_llc)) <= 1
