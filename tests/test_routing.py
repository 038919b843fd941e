"""Unit tests for XY routing and the XY broadcast tree."""

import pytest

from repro.noc.routing import (EAST, LOCAL, NORTH, PORT_SETS, SOUTH, WEST,
                               broadcast_outports, broadcast_route_table,
                               coords, hop_count, neighbor, node_at,
                               opposite, unicast_route_table, xy_route)


class TestCoordinates:
    def test_coords_roundtrip(self):
        for node in range(36):
            x, y = coords(node, 6)
            assert node_at(x, y, 6) == node

    def test_neighbor_directions(self):
        # Node 7 in a 6x6 mesh is at (1, 1).
        assert neighbor(7, NORTH, 6, 6) == 13
        assert neighbor(7, SOUTH, 6, 6) == 1
        assert neighbor(7, EAST, 6, 6) == 8
        assert neighbor(7, WEST, 6, 6) == 6

    def test_neighbor_off_mesh_raises(self):
        with pytest.raises(ValueError):
            neighbor(0, SOUTH, 6, 6)
        with pytest.raises(ValueError):
            neighbor(0, WEST, 6, 6)
        with pytest.raises(ValueError):
            neighbor(35, NORTH, 6, 6)

    def test_opposite(self):
        assert opposite(NORTH) == SOUTH
        assert opposite(EAST) == WEST
        assert opposite(LOCAL) == LOCAL


class TestXYRouting:
    def test_x_before_y(self):
        # From (0,0) to (3,3): must go east first.
        assert xy_route(0, node_at(3, 3, 6), 6) == EAST

    def test_y_when_x_aligned(self):
        assert xy_route(node_at(3, 0, 6), node_at(3, 3, 6), 6) == NORTH

    def test_local_at_destination(self):
        assert xy_route(14, 14, 6) == LOCAL

    def test_route_always_reaches(self):
        # Walk the XY path from every src to every dst in a 4x4 mesh.
        for src in range(16):
            for dst in range(16):
                current, hops = src, 0
                while True:
                    port = xy_route(current, dst, 4)
                    if port == LOCAL:
                        break
                    current = neighbor(current, port, 4, 4)
                    hops += 1
                    assert hops <= 8, "XY route must not loop"
                assert current == dst
                assert hops == hop_count(src, dst, 4)


class TestBroadcastTree:
    @pytest.mark.parametrize("width,height", [(2, 2), (4, 4), (6, 6), (3, 5)])
    def test_every_node_receives_exactly_once(self, width, height):
        for src in range(width * height):
            deliveries = {}
            frontier = [(src, LOCAL)]
            steps = 0
            while frontier:
                steps += 1
                assert steps < 10_000
                nxt = []
                for node, inport in frontier:
                    ports = broadcast_outports(node, inport, width, height)
                    for port in ports:
                        if port == LOCAL:
                            deliveries[node] = deliveries.get(node, 0) + 1
                        else:
                            nxt.append((neighbor(node, port, width, height),
                                        opposite(port)))
                frontier = nxt
            assert deliveries == {n: 1 for n in range(width * height)}

    def test_source_forks_all_directions(self):
        # Center of a 3x3 mesh: all four directions plus local.
        ports = broadcast_outports(4, LOCAL, 3, 3)
        assert ports == frozenset({NORTH, EAST, SOUTH, WEST, LOCAL})

    def test_corner_source(self):
        ports = broadcast_outports(0, LOCAL, 3, 3)
        assert ports == frozenset({NORTH, EAST, LOCAL})

    def test_y_traveling_flit_does_not_fork_x(self):
        # Arriving from the south (traveling north): only N + local.
        ports = broadcast_outports(4, SOUTH, 3, 3)
        assert ports == frozenset({NORTH, LOCAL})

    def test_invalid_inport_raises(self):
        with pytest.raises(ValueError):
            broadcast_outports(0, 9, 3, 3)


class TestRouteTables:
    """The per-router tables are the routing functions, tabulated."""

    @pytest.mark.parametrize("width,height", [(6, 6), (3, 5)])
    def test_tables_equal_the_functions_everywhere(self, width, height):
        for node in range(width * height):
            unicast = unicast_route_table(node, width, height)
            assert len(unicast) == width * height
            for dst, ports in enumerate(unicast):
                assert ports is PORT_SETS[xy_route(node, dst, width)]
            assert broadcast_route_table(node, width, height) == tuple(
                broadcast_outports(node, inport, width, height)
                for inport in (NORTH, EAST, SOUTH, WEST, LOCAL))

    def test_port_sets_are_the_five_singletons(self):
        assert PORT_SETS == tuple(frozenset({port}) for port in range(5))
