import dataclasses

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_fixture
from sdta import (
    Network,
    NodeKind,
    ParseError,
    UnsupportedNodeType,
    ValidationError,
    classify_node,
    parse_network,
    serialize_network,
)
from sdta.loading import _Turns
from sdta.network import validate

# diverge at 2, merge at 5, plain relays at 3 and 4
BASIC = """
nodes: [1, 2, 3, 4, 5, 6]
origin: 1
destination: 6
links:
  - {id: "1-2", from: 1, to: 2, length_m: 500, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: "2-3", from: 2, to: 3, length_m: 500, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: "2-4", from: 2, to: 4, length_m: 500, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: "3-5", from: 3, to: 5, length_m: 500, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: "4-5", from: 4, to: 5, length_m: 500, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: "5-6", from: 5, to: 6, length_m: 500, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
"""


def test_parse_basic_topology():
    net = parse_network(BASIC)
    assert net.origin == 1
    assert net.destination == 6
    assert [l.id for l in net.links] == ["1-2", "2-3", "2-4", "3-5", "4-5", "5-6"]
    link = net.links[0]
    assert link.length == 500
    assert link.free_flow_speed == 10
    assert link.backward_wave_speed == 5
    assert link.jam_density == 0.2


def test_node_classification():
    net = parse_network(BASIC)
    assert classify_node(net, 1) is NodeKind.ORIGIN
    assert classify_node(net, 6) is NodeKind.DESTINATION
    assert classify_node(net, 2) is NodeKind.DIVERGE
    assert classify_node(net, 3) is NodeKind.INHOMOGENEOUS
    assert classify_node(net, 4) is NodeKind.INHOMOGENEOUS
    assert classify_node(net, 5) is NodeKind.MERGE


def test_default_merge_priorities():
    net = parse_network(BASIC)
    by_id = {l.id: l for l in net.links}
    assert by_id["3-5"].merge_priority == pytest.approx(0.5)
    assert by_id["4-5"].merge_priority == pytest.approx(0.5)


def test_single_merge_priority_fixes_complement():
    doc = BASIC.replace(
        'id: "4-5", from: 4, to: 5, length_m: 500',
        'id: "4-5", from: 4, to: 5, priority: 0.7, length_m: 500',
    )
    net = parse_network(doc)
    by_id = {l.id: l for l in net.links}
    assert by_id["4-5"].merge_priority == pytest.approx(0.7)
    assert by_id["3-5"].merge_priority == pytest.approx(0.3)


def test_validate_clean_network():
    assert validate(parse_network(BASIC)) == []


def test_extra_source_rejected():
    doc = """
nodes: [1, 2, 3, 4]
origin: 1
destination: 4
links:
  - {id: a, from: 1, to: 3, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: b, from: 2, to: 3, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: c, from: 3, to: 4, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
"""
    with pytest.raises(ValidationError) as err:
        parse_network(doc)
    assert any("source" in v for v in err.value.violations)


def test_unreachable_node_rejected():
    doc = BASIC.replace("nodes: [1, 2, 3, 4, 5, 6]", "nodes: [1, 2, 3, 4, 5, 6, 7]")
    with pytest.raises(ValidationError):
        parse_network(doc)


def test_missing_field_is_parse_error():
    with pytest.raises(ParseError):
        parse_network("nodes: [1, 2]\norigin: 1\ndestination: 2\n")
    with pytest.raises(ParseError):
        parse_network("not a mapping")


def test_nonpositive_geometry_rejected():
    bad = BASIC.replace("length_m: 500", "length_m: -3", 1)
    with pytest.raises((ParseError, ValidationError)):
        parse_network(bad)


def test_duplicate_link_id_rejected():
    dup = BASIC + '  - {id: "1-2", from: 1, to: 2, length_m: 9, vf_mps: 1, w_mps: 1, kjam_veh_per_m: 0.2}\n'
    with pytest.raises((ParseError, ValidationError)):
        parse_network(dup)


def test_serialize_round_trip():
    net = parse_network(BASIC)
    again = parse_network(serialize_network(net))
    assert [l.id for l in again.links] == [l.id for l in net.links]
    assert again.origin == net.origin and again.destination == net.destination
    assert [l.length for l in again.links] == [l.length for l in net.links]


def test_three_way_branch_unsupported():
    doc = """
nodes: [1, 2, 3, 4, 5, 6, 7]
origin: 1
destination: 7
links:
  - {id: a, from: 1, to: 2, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: b, from: 2, to: 3, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: c, from: 2, to: 4, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: d, from: 2, to: 5, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: e, from: 3, to: 6, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: f, from: 4, to: 6, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: g, from: 5, to: 6, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
  - {id: h, from: 6, to: 7, length_m: 100, vf_mps: 10, w_mps: 5, kjam_veh_per_m: 0.2}
"""
    with pytest.raises((UnsupportedNodeType, ValidationError)):
        net = parse_network(doc)
        classify_node(net, 2)


@pytest.mark.parametrize("given, want", [((None, 0.7), (0.3, 0.7)), ((0.3, 0.3), (0.5, 0.5))])
def test_a_hand_built_network_gets_the_parsed_merge_priorities(given, want):
    # diamond merges 3-5 and 4-5 at node 5; the loader reads the normalized
    # priorities whichever way the network was built
    given = dict(zip(("3-5", "4-5"), given))
    doc = yaml.safe_load(read_fixture("diamond.net.yaml"))
    for link in doc["links"]:
        if given.get(link["id"]) is not None:
            link["priority"] = given[link["id"]]
    parsed = parse_network(doc)
    built = Network(parsed.nodes, tuple(
        dataclasses.replace(l, merge_priority=given.get(l.id)) for l in parsed.links
    ), parsed.origin, parsed.destination)
    for net in (parsed, built):
        by_id = {l.id: l.merge_priority for l in net.links}
        assert (by_id["3-5"], by_id["4-5"]) == pytest.approx(want)
        assert _Turns(net).merge_share == pytest.approx(want)
    assert built.links == parsed.links


priorities = st.one_of(st.none(), st.floats(0.01, 0.99))


@settings(max_examples=200, deadline=None)
@given(priorities, priorities)
def test_merge_priorities_survive_a_round_trip(pa, pb):
    # normalizing a normalized pair changes nothing, so a network read back
    # from its own document, or rebuilt from its own links, loads the same
    doc = yaml.safe_load(read_fixture("diamond.net.yaml"))
    for link, p in zip([l for l in doc["links"] if l["to"] == 5], (pa, pb)):
        if p is not None:
            link["priority"] = p
    net = parse_network(doc)
    again = parse_network(serialize_network(net))
    rebuilt = Network(net.nodes, net.links, net.origin, net.destination)
    for other in (again, rebuilt):
        assert [l.merge_priority for l in other.links] == [l.merge_priority for l in net.links]
        assert _Turns(other).merge_share.tolist() == _Turns(net).merge_share.tolist()
