"""Routing for the mesh main network.

Dimension-ordered XY routing for unicasts (deadlock-free on a mesh) and an
XY broadcast tree for the single-flit GO-REQ coherence requests: the
request first travels along the source row (X dimension), and every router
in that row forks copies north and south (Y dimension) as well as to its
local port, so every node receives exactly one copy.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

# Output/input port identifiers.  LOCAL is the NIC-facing port.
NORTH, EAST, SOUTH, WEST, LOCAL = range(5)
PORT_NAMES = ("N", "E", "S", "W", "L")
DIRECTIONS = (NORTH, EAST, SOUTH, WEST)

_OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST, LOCAL: LOCAL}


def opposite(port: int) -> int:
    """The input port a flit arrives on after leaving through *port*."""
    return _OPPOSITE[port]


def coords(node: int, width: int) -> Tuple[int, int]:
    """Map node id -> (x, y); node ids are row-major, y grows northward."""
    return node % width, node // width


def node_at(x: int, y: int, width: int) -> int:
    return y * width + x


def neighbor(node: int, port: int, width: int, height: int) -> int:
    """Node id of the neighbour through *port*; raises if off-mesh."""
    x, y = coords(node, width)
    if port == NORTH and y + 1 < height:
        return node_at(x, y + 1, width)
    if port == SOUTH and y > 0:
        return node_at(x, y - 1, width)
    if port == EAST and x + 1 < width:
        return node_at(x + 1, y, width)
    if port == WEST and x > 0:
        return node_at(x - 1, y, width)
    raise ValueError(f"no neighbour through port {PORT_NAMES[port]} of node {node}")


def xy_route(current: int, dest: int, width: int) -> int:
    """Next output port under XY (X first, then Y) routing."""
    cx, cy = coords(current, width)
    dx, dy = coords(dest, width)
    if cx < dx:
        return EAST
    if cx > dx:
        return WEST
    if cy < dy:
        return NORTH
    if cy > dy:
        return SOUTH
    return LOCAL


def broadcast_outports(current: int, inport: int, width: int,
                       height: int) -> FrozenSet[int]:
    """Output ports for a broadcast flit at *current* arriving via *inport*.

    ``inport == LOCAL`` means the flit is being injected at its source.
    The fork pattern implements an XY tree:

    * at the source: east + west along the row, north + south, and local;
    * traveling along X (arrived from E/W): keep going in X, fork N and S,
      and deliver locally;
    * traveling along Y (arrived from N/S): keep going in Y and deliver
      locally.
    """
    x, y = coords(current, width)
    ports = {LOCAL}
    if inport == LOCAL:
        if x + 1 < width:
            ports.add(EAST)
        if x > 0:
            ports.add(WEST)
        if y + 1 < height:
            ports.add(NORTH)
        if y > 0:
            ports.add(SOUTH)
    elif inport == WEST:  # traveling east along the source row
        if x + 1 < width:
            ports.add(EAST)
        if y + 1 < height:
            ports.add(NORTH)
        if y > 0:
            ports.add(SOUTH)
    elif inport == EAST:  # traveling west along the source row
        if x > 0:
            ports.add(WEST)
        if y + 1 < height:
            ports.add(NORTH)
        if y > 0:
            ports.add(SOUTH)
    elif inport == SOUTH:  # traveling north
        if y + 1 < height:
            ports.add(NORTH)
    elif inport == NORTH:  # traveling south
        if y > 0:
            ports.add(SOUTH)
    else:
        raise ValueError(f"invalid inport {inport}")
    return frozenset(ports)


# One shared frozenset per single-outport route: every unicast entry of
# every router's table is one of these five.
PORT_SETS = tuple(frozenset({port}) for port in range(5))


def unicast_route_table(node: int, width: int,
                        height: int) -> Tuple[FrozenSet[int], ...]:
    """``table[dst]``: the XY outport (as a set) at *node* toward *dst*."""
    return tuple(PORT_SETS[xy_route(node, dst, width)]
                 for dst in range(width * height))


def broadcast_route_table(node: int, width: int,
                          height: int) -> Tuple[FrozenSet[int], ...]:
    """``table[inport]``: the broadcast fork at *node* per input port."""
    return tuple(broadcast_outports(node, inport, width, height)
                 for inport in range(5))


def hop_count(a: int, b: int, width: int) -> int:
    """Manhattan hop distance between nodes *a* and *b*."""
    ax, ay = coords(a, width)
    bx, by = coords(b, width)
    return abs(ax - bx) + abs(ay - by)
