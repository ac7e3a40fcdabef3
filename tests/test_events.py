import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdta import (
    EventTree,
    LinkRef,
    TravelTimeDistribution,
    ValidationError,
    free_flow_distribution,
    generate_events,
    parse_ttd,
    prefix_distances,
    round_to_grid,
)
from sdta.events import nearest_events
from conftest import read_fixture
from oracles import generate_events_loop, pick_nearest


def test_levels_refine_to_singletons(parallel3, parallel3_tree):
    tree = parallel3_tree
    assert [len(tree.events_at(t)) for t in range(0, 5)] == [1, 1, 2, 2, 2]
    full = tree.events_at(1)[0]
    assert set(full) == {0, 1}
    for t in (2, 3, 4):
        assert set(tree.events_at(t)) == {(0,), (1,)}


def test_event_of_is_consistent(parallel3_tree):
    tree = parallel3_tree
    for t in range(1, 5):
        for r in range(2):
            support = tree.events_at(t)[tree.member[t, r]]
            assert r in support
            assert support in tree.events_at(t)


def test_event_probabilities(parallel3_tree):
    tree = parallel3_tree
    full = tree.masses[tree.start[1] + tree.member[1, 0]]
    assert full == pytest.approx(1.0)
    child = tree.masses[tree.start[3] + tree.member[3, 1]]
    assert child == pytest.approx(0.5)
    assert child / full == pytest.approx(0.5)  # conditional on the full event


def test_rounding_required_before_event_generation():
    raw = parse_ttd(read_fixture("parallel3.ttd.yaml"))
    assert not raw.grid_rounded
    with pytest.raises(ValidationError):
        generate_events(raw)
    assert round_to_grid(raw).grid_rounded


def test_rounding_to_nearest_grid_multiple():
    doc = """
dt_s: 2.0
steps: 2
origin: 1
destination: 2
links:
  - {id: a, from: 1, to: 2}
realizations:
  - prob: 1.0
    times: {a: [2.0, 5.9]}
"""
    rounded = round_to_grid(parse_ttd(doc))
    # nearest multiple of dt, halves up, never below one step
    assert rounded.values[0, 0, 1] == pytest.approx(2.0)
    assert rounded.values[0, 0, 2] == pytest.approx(6.0)
    tiny = round_to_grid(parse_ttd(doc.replace("[2.0, 5.9]", "[2.9, 5.0]")))
    assert tiny.values[0, 0, 1] == pytest.approx(2.0)
    assert tiny.values[0, 0, 2] == pytest.approx(6.0)
    assert np.array_equal(round_to_grid(rounded).values, rounded.values)


def test_identical_realizations_never_refine(twolinks):
    net, scn = twolinks
    ff = round_to_grid(free_flow_distribution(net, scn))
    tree = generate_events(ff)
    assert all(len(tree.events_at(t)) == 1 for t in range(scn.horizon_steps + 1))


def _two_row_ttd(row0, row1):
    values = np.array([[row0], [row1]], dtype=float)
    return TravelTimeDistribution(
        values, 1.0, np.array([0.5, 0.5]), [LinkRef("a", 1, 2)], 1, 2,
        grid_rounded=True,
    )


def nearest_event(ttd, tree, info, t):
    """The step-t event matched to the history ``info`` (L, T+1) before t,
    as the loaders match it."""
    distances = prefix_distances(ttd.values, info)[:, t]
    return tree.events_at(t)[int(nearest_events(tree.member[t], distances))]


def test_nearest_event_tie_prefers_lowest_realization():
    ttd = _two_row_ttd([2, 2, 2], [4, 4, 4])
    tree = generate_events(ttd)
    info = np.array([[3.0, 3.0, 3.0]])
    assert nearest_event(ttd, tree, info, 2) == (0,)


def test_nearest_event_follows_observed_history():
    ttd = _two_row_ttd([2, 2, 2], [4, 4, 4])
    tree = generate_events(ttd)
    near_r1 = np.array([[3.9, 3.9, 3.9]])
    assert nearest_event(ttd, tree, near_r1, 2) == (1,)
    near_r0 = np.array([[2.1, 2.1, 2.1]])
    assert nearest_event(ttd, tree, near_r0, 2) == (0,)


def test_prefix_distances_accumulate():
    ttd = _two_row_ttd([2, 2, 2, 2], [4, 4, 4, 4])
    info = np.array([[0.0, 3.0, 2.5, 5.0]])
    d = prefix_distances(ttd.values, info)
    # distances at step t sum |defining - observed| over steps before t
    assert d[:, 1] == pytest.approx([0.0, 0.0])
    assert d[:, 2] == pytest.approx([1.0, 1.0])
    assert d[:, 3] == pytest.approx([1.5, 2.5])


@settings(max_examples=30, deadline=None)
@given(links=st.sampled_from([7, 8, 36]), seed=st.integers(0, 2**32 - 1))
def test_prefix_distances_sum_as_the_chronological_loader(links, seed):
    """Bit for bit the distances ``po_ltm`` accumulates a step at a time,
    each step's link sum taken along a contiguous links-last row, which
    numpy sums pairwise from eight links on."""
    rng = np.random.default_rng(seed)
    R, T = 3, 40
    defining = rng.uniform(1.0, 100.0, (R, links, T + 1))
    info = rng.uniform(1.0, 100.0, (links, T + 1))
    d = prefix_distances(defining, info)
    running = np.zeros(R)
    for t in range(1, T + 1):
        if t >= 2:
            running += np.abs(defining[:, :, t - 1] - info[:, t - 1]).sum(axis=1)
        assert d[:, t].tobytes() == running.tobytes(), t


def test_pick_nearest_first_minimum():
    ttd = _two_row_ttd([2, 2, 2], [4, 4, 4])
    tree = generate_events(ttd)
    level = tree.events_at(2)
    assert pick_nearest(level, np.array([5.0, 5.0])) == (0,)
    assert pick_nearest(level, np.array([7.0, 1.0])) == (1,)


@st.composite
def scored_levels(draw):
    """Rows of (level, distances): a random partition of R realizations in a
    random event order, so events are not sorted by their first member.

    Distances are either arbitrary floats or small multiples of an inexact
    unit such as 0.1, so that scores tie exactly or differ only by how
    their sums round."""
    R = draw(st.integers(1, 20))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        labels = draw(st.lists(st.integers(0, R - 1), min_size=R, max_size=R))
        groups = [tuple(r for r in range(R) if labels[r] == g) for g in sorted(set(labels))]
        level = [groups[i] for i in draw(st.permutations(range(len(groups))))]
        unit = draw(st.sampled_from([None, 1.0, 0.1, 1.0 / 3.0]))
        distance = (st.floats(0.0, 1e4, allow_subnormal=False) if unit is None
                    else st.integers(0, 3).map(lambda k: k * unit))
        rows.append((level, np.array(draw(st.lists(distance, min_size=R, max_size=R)))))
    return rows


@settings(max_examples=300, deadline=None)
@given(scored_levels())
def test_nearest_events_agree_with_pick_nearest(rows):
    member = np.empty((len(rows), rows[0][1].size), dtype=np.int64)
    for i, (level, _) in enumerate(rows):
        for e, support in enumerate(level):
            member[i, list(support)] = e
    distances = np.stack([d for _, d in rows])
    got = nearest_events(member, distances)
    for i, (level, d) in enumerate(rows):
        assert got[i] == level.index(pick_nearest(level, d))
        assert nearest_events(member[i], d) == got[i]


@pytest.mark.parametrize("members, distances", [
    # 0.1 + 0.2 + 0.3 rounds above 0.6 when summed in ascending order
    ((0, 1, 1, 1), (0.1 + 0.2 + 0.3, 0.1, 0.2, 0.3)),
    # eight times 0.1 is 0.8 when summed pairwise, as numpy does from eight
    # values on, and just below 0.8 when summed one by one
    ((0,) + (1,) * 8, (0.8,) + (0.1,) * 8),
])
def test_nearest_events_sum_as_numpy(members, distances):
    """Event 0 ties event 1 only when event 1 sums exactly as numpy sums it,
    and then wins on its lower first member."""
    level = [(0,), tuple(range(1, len(members)))]
    distances = np.array(distances)
    assert pick_nearest(level, distances) is level[0]
    assert nearest_events(np.array(members), distances) == 0


def test_level_zero_mirrors_level_one(parallel3_tree):
    assert parallel3_tree.events_at(0) == parallel3_tree.events_at(1)


def test_event_tree_rejects_level_zero_unlike_level_one():
    # realization 1's step-0 column would name a step-2 event
    with pytest.raises(ValidationError, match="level 0"):
        EventTree([[0, 1], [0, 0], [0, 1]], [0.5, 0.5])


@pytest.mark.parametrize("member", [[[0, 0], [0, 0], [0, 2]],
                                    [[0, 0], [0, 0], [1, 1]],
                                    [[0, 0], [0, 0], [-1, 0]]])
def test_event_tree_rejects_a_skipped_event_number(member):
    # each would leave an event with no realization in it
    with pytest.raises(ValidationError, match="without gaps"):
        EventTree(member, [0.5, 0.5])


@pytest.mark.parametrize("member", [[[0, 0, 0], [0, 0, 0]], [[0], [0]], [0, 0]])
def test_event_tree_needs_one_member_column_per_realization(member):
    with pytest.raises(ValidationError, match="one column per realization"):
        EventTree(member, [0.5, 0.5])


def test_events_are_ordered_by_parent_then_lowest_realization():
    # r0 and r2 agree at step 1 and r1 does not; r0 and r2 differ at step 2.
    # Step 3 lists (0, 2)'s children before (1,), though 1 < 2.
    values = np.array([[[1, 1, 1, 1]], [[2, 2, 1, 1]], [[1, 1, 2, 1]]], dtype=float)
    ttd = TravelTimeDistribution(values, 1.0, np.array([0.25, 0.25, 0.5]),
                                 [LinkRef("a", 1, 2)], 1, 2, grid_rounded=True)
    tree = generate_events(ttd)
    assert tree.events_at(2) == ((0, 2), (1,))
    assert tree.events_at(3) == ((0,), (2,), (1,))
    assert tree.member[3].tolist() == [0, 2, 1]
    assert [tree.events_at(t) for t in range(4)] == [tuple(l) for l in generate_events_loop(ttd)]


def test_ttd_links_may_have_integer_ids():
    ttd = parse_ttd("dt_s: 1.0\nsteps: 2\norigin: 1\ndestination: 2\n"
                    "links: [{id: 7, from: 1, to: 2}]\n"
                    "realizations: [{prob: 1.0, times: {7: [1, 2]}}]\n")
    assert ttd.links[0].id == "7"
    assert ttd.values[0, 0, 1:].tolist() == [1.0, 2.0]


def test_pairwise_sums_leave_numpy_ma_unimported():
    """A plain ``np.unique`` imports ``numpy.ma`` on its first call, some
    milliseconds and a megabyte of a fresh process; building and matching
    ten-realization events, whose sums ``_pairwise_sums`` redoes, must not."""
    script = """
import sys
import numpy as np
from sdta import LinkRef, TravelTimeDistribution, generate_events
from sdta.events import nearest_events
values = np.ones((10, 1, 5))
values[5:, 0, 2:] = 2.0
ttd = TravelTimeDistribution(values, 1.0, np.full(10, 0.1), [LinkRef("a", 0, 1)], 0, 1,
                             grid_rounded=True)
tree = generate_events(ttd)
nearest_events(tree.member[1], np.linspace(0.0, 1.0, 10))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
