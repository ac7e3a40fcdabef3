"""Directed single-commodity network model.

Links carry a triangular fundamental diagram (free-flow speed, backward
wave speed, jam density).  Nodes are not declared explicitly beyond their
identifiers; their role follows from link incidence and is restricted to
five archetypes so the loader node models stay closed-form.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Any

import yaml

from .errors import ParseError, UnsupportedNodeType, ValidationError

NodeId = int | str
Document = str | Path | Mapping[str, Any]  # a file, YAML text or a loaded mapping


def node_sort_key(node: NodeId):
    """Total order over node ids even when int and str ids are mixed."""
    if isinstance(node, bool) or not isinstance(node, int):
        return (1, str(node))
    return (0, node)


class NodeKind(enum.Enum):
    ORIGIN = "origin"             # 0 in, 1 out
    DESTINATION = "destination"   # 1 in, 0 out
    INHOMOGENEOUS = "inhomogeneous"  # 1 in, 1 out
    MERGE = "merge"               # 2 in, 1 out
    DIVERGE = "diverge"           # 1 in, 2 out


@dataclass(frozen=True)
class LinkSpec:
    """One directed link with triangular fundamental diagram parameters."""

    id: str
    from_node: NodeId
    to_node: NodeId
    length: float             # m
    free_flow_speed: float    # m/s
    backward_wave_speed: float  # m/s
    jam_density: float        # veh/m
    merge_priority: float | None = None

    def __post_init__(self):
        if self.length <= 0:
            raise ValidationError(f"link {self.id}: length must be positive")
        if self.free_flow_speed <= 0:
            raise ValidationError(f"link {self.id}: free-flow speed must be positive")
        if not 0 < self.backward_wave_speed <= self.free_flow_speed:
            raise ValidationError(
                f"link {self.id}: backward wave speed must lie in (0, free-flow speed]"
            )
        if self.jam_density <= 0:
            raise ValidationError(f"link {self.id}: jam density must be positive")
        if self.merge_priority is not None and not 0 < self.merge_priority < 1:
            raise ValidationError(f"link {self.id}: merge priority must lie in (0, 1)")

    @property
    def free_flow_time(self) -> float:
        return self.length / self.free_flow_speed

    @property
    def backward_wave_time(self) -> float:
        return self.length / self.backward_wave_speed

    @property
    def storage(self) -> float:
        """Vehicles the link holds at jam density."""
        return self.jam_density * self.length

    @property
    def fd_capacity(self) -> float:
        """Flow at the apex of the triangular fundamental diagram, veh/s."""
        vf, w = self.free_flow_speed, self.backward_wave_speed
        return self.jam_density * vf * w / (vf + w)


@dataclass(frozen=True)
class Network:
    """Nodes, links and the origin-destination pair.  Merge priorities are
    normalized on construction (see ``_normalized_merge_priorities``)."""

    nodes: tuple[NodeId, ...]
    links: tuple[LinkSpec, ...]
    origin: NodeId
    destination: NodeId

    def __post_init__(self):
        object.__setattr__(self, "links", _normalized_merge_priorities(self.links))
        ids = [l.id for l in self.links]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate link ids")
        known = set(self.nodes)
        for l in self.links:
            if l.from_node not in known or l.to_node not in known:
                raise ValidationError(f"link {l.id}: unknown endpoint")
        if self.origin not in known or self.destination not in known:
            raise ValidationError("origin/destination not among the nodes")

    @cached_property
    def link_index(self) -> dict[str, int]:
        return {l.id: i for i, l in enumerate(self.links)}

    @cached_property
    def out_links(self) -> dict[NodeId, tuple[LinkSpec, ...]]:
        table: dict[NodeId, list[LinkSpec]] = {n: [] for n in self.nodes}
        for l in self.links:
            table[l.from_node].append(l)
        return {n: tuple(ls) for n, ls in table.items()}

    @cached_property
    def in_links(self) -> dict[NodeId, tuple[LinkSpec, ...]]:
        table: dict[NodeId, list[LinkSpec]] = {n: [] for n in self.nodes}
        for l in self.links:
            table[l.to_node].append(l)
        return {n: tuple(ls) for n, ls in table.items()}

    def link(self, link_id: str) -> LinkSpec:
        try:
            return self.links[self.link_index[link_id]]
        except KeyError:
            raise ValidationError(f"unknown link id {link_id!r}") from None


def classify_node(network: Network, node: NodeId) -> NodeKind:
    """Map a node's (in-degree, out-degree) onto the five archetypes."""
    degree = (len(network.in_links[node]), len(network.out_links[node]))
    kinds = {
        (0, 1): NodeKind.ORIGIN,
        (1, 0): NodeKind.DESTINATION,
        (1, 1): NodeKind.INHOMOGENEOUS,
        (2, 1): NodeKind.MERGE,
        (1, 2): NodeKind.DIVERGE,
    }
    try:
        return kinds[degree]
    except KeyError:
        raise UnsupportedNodeType(
            f"node {node}: degree pattern {degree} is not supported"
        ) from None


def reachable(links, start: NodeId, forward: bool = True) -> set[NodeId]:
    """Nodes reached from ``start`` along ``links`` (anything with
    ``from_node`` and ``to_node``), or against them when not ``forward``."""
    adjacency: dict[NodeId, list[NodeId]] = {}
    for l in links:
        tail, head = (l.from_node, l.to_node) if forward else (l.to_node, l.from_node)
        adjacency.setdefault(tail, []).append(head)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def validate(network: Network) -> list[str]:
    """Return a list of archetype/topology violations (empty when clean)."""
    out: list[str] = []
    sources = [n for n in network.nodes if not network.in_links[n]]
    sinks = [n for n in network.nodes if not network.out_links[n]]
    if len(sources) != 1:
        out.append(f"expected exactly one source node, found {sorted(sources, key=node_sort_key)}")
    elif sources[0] != network.origin:
        out.append(f"declared origin {network.origin} is not the source node {sources[0]}")
    if len(sinks) != 1:
        out.append(f"expected exactly one sink node, found {sorted(sinks, key=node_sort_key)}")
    elif sinks[0] != network.destination:
        out.append(f"declared destination {network.destination} is not the sink node {sinks[0]}")

    for node in network.nodes:
        try:
            classify_node(network, node)
        except UnsupportedNodeType as err:
            out.append(str(err))

    fwd = reachable(network.links, network.origin)
    bwd = reachable(network.links, network.destination, forward=False)
    for node in network.nodes:
        if node not in fwd:
            out.append(f"node {node}: not reachable from the origin")
        if node not in bwd:
            out.append(f"node {node}: cannot reach the destination")
    return out


class _UniqueKeys:
    """Constructor mixin: a key repeated within one mapping is an error, not
    a silent overwrite.  Keys a merge (``<<``) brings in may still be
    overridden."""

    def construct_mapping(self, node, deep=False):
        own = [key_node for key_node, _ in node.value
               if key_node.tag != "tag:yaml.org,2002:merge"]
        # merges resolved and "=" keys made text first; the base's own
        # flatten_mapping then finds nothing left to do
        self.flatten_mapping(node)
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in seen
            except TypeError:  # unhashable: the base constructor reports it
                continue
            if repeated:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found a repeated key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


class _Loader(_UniqueKeys, yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """libyaml's C parser where PyYAML was built with it, else the Python
    one.  Construction is PyYAML's Python SafeConstructor either way, so
    every value keeps its type."""


def read_mapping(document: Document) -> Mapping[str, Any]:
    """The root mapping of a document.  Every parser reads its document here:
    an unreadable file (missing, a directory, not UTF-8), invalid YAML, a
    key repeated within one mapping or a root of another shape is a
    ParseError."""
    if isinstance(document, Path):
        try:
            document = document.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ParseError(f"cannot read {document}: {err}") from None
    if isinstance(document, str):
        try:
            document = yaml.load(document, Loader=_Loader)
        except yaml.YAMLError as err:
            raise ParseError(f"invalid document: {err}") from err
    return shaped(document, "a mapping", "document root")


_SHAPES = {"a mapping": Mapping, "a list": (list, tuple), "an id": (int, str)}


def shaped(value: Any, shape: str, what: str) -> Any:
    """``value`` when it has ``shape`` (a key of ``_SHAPES``), or a ParseError
    naming ``what``.  A missing field reads as None, which has no shape."""
    if not isinstance(value, _SHAPES[shape]):
        got = "nothing" if value is None else type(value).__name__
        raise ParseError(f"{what} must be {shape}, got {got}")
    return value


def _normalized_merge_priorities(links: tuple[LinkSpec, ...]) -> tuple[LinkSpec, ...]:
    # Default 0.5 per incoming link at a merge; a single given value fixes
    # its partner to the complement, two given values are normalized.
    by_head: dict[NodeId, list[int]] = {}
    for i, l in enumerate(links):
        by_head.setdefault(l.to_node, []).append(i)
    out = list(links)
    for _, idxs in by_head.items():
        if len(idxs) != 2:
            continue
        a, b = (out[i] for i in idxs)
        pa, pb = a.merge_priority, b.merge_priority
        if pa is None and pb is None:
            pa = pb = 0.5
        elif pa is None:
            pa = 1.0 - pb
        elif pb is None:
            pb = 1.0 - pa
        else:
            total = pa + pb
            pa, pb = pa / total, pb / total
        out[idxs[0]] = replace(a, merge_priority=pa)
        out[idxs[1]] = replace(b, merge_priority=pb)
    return tuple(out)


def parse_network(document: Document) -> Network:
    """Parse and validate a network document."""
    doc = read_mapping(document)
    nodes = tuple(shaped(n, "an id", "node") for n in shaped(doc.get("nodes"), "a list", "nodes"))
    raw_links = shaped(doc.get("links"), "a list", "links")
    origin = shaped(doc.get("origin"), "an id", "origin")
    destination = shaped(doc.get("destination"), "an id", "destination")
    if not raw_links:
        raise ValidationError("no route from origin: the links list is empty")

    links: list[LinkSpec] = []
    for item in raw_links:
        try:
            links.append(
                LinkSpec(
                    id=str(shaped(item["id"], "an id", "link id")),
                    from_node=shaped(item["from"], "an id", "link from"),
                    to_node=shaped(item["to"], "an id", "link to"),
                    length=float(item["length_m"]),
                    free_flow_speed=float(item["vf_mps"]),
                    backward_wave_speed=float(item["w_mps"]),
                    jam_density=float(item["kjam_veh_per_m"]),
                    merge_priority=(
                        float(item["priority"]) if "priority" in item else None
                    ),
                )
            )
        except KeyError as err:
            raise ParseError(f"link entry missing field {err}") from None
        except (TypeError, ValueError) as err:
            raise ParseError(f"malformed link entry: {err}") from None

    network = Network(nodes=nodes, links=tuple(links), origin=origin, destination=destination)
    violations = validate(network)
    if violations:
        raise ValidationError("invalid network", violations)
    return network


def serialize_network(network: Network) -> str:
    """Inverse of parse_network (round-trips through YAML)."""
    doc: dict[str, Any] = {
        "nodes": list(network.nodes),
        "links": [],
        "origin": network.origin,
        "destination": network.destination,
    }
    for l in network.links:
        item: dict[str, Any] = {
            "id": l.id,
            "from": l.from_node,
            "to": l.to_node,
            "length_m": l.length,
            "vf_mps": l.free_flow_speed,
            "w_mps": l.backward_wave_speed,
            "kjam_veh_per_m": l.jam_density,
        }
        if l.merge_priority is not None:
            item["priority"] = l.merge_priority
        doc["links"].append(item)
    return yaml.safe_dump(doc, sort_keys=False)
