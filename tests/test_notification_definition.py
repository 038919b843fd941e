"""The notification network against its definition (Sec. 3.3).

The reference model is the hop-by-hop OR-mesh: each router is five OR
gates and a latch, so after every cycle every latch holds the OR of the
previous cycle's latches over its closed mesh neighbourhood — computed
here from the coordinates, never by the network.  The network computes
the window's OR once; it is right only because the reference converges
to that OR within ``NotificationConfig.minimum_window`` cycles, which the
first assertion checks on every grid point (and that the corner-to-corner
pair needs the full Manhattan diameter, so the reference really is hop
by hop).  Then the network must deliver exactly that OR, at the window's
last cycle, to every sink; poll only the announced sources, in node
order; call no sink in an empty window; and, under the quiescent kernel,
sleep from each window start to that window's end.
"""

import random

import pytest

from repro.noc.config import NotificationConfig
from repro.notification.network import NotificationNetwork
from repro.sim.engine import Engine


def closed_neighbourhood(node, width, height):
    x, y = node % width, node // width
    yield node
    if x > 0:
        yield node - 1
    if x + 1 < width:
        yield node + 1
    if y > 0:
        yield node - width
    if y + 1 < height:
        yield node + width


def or_step(latches, width, height):
    merged = []
    for node in range(width * height):
        vector = 0
        for other in closed_neighbourhood(node, width, height):
            vector |= latches[other]
        merged.append(vector)
    return merged


def reference_window(vectors, width, height, cycles):
    """The hop-by-hop mesh: latches after each of *cycles* OR steps from
    the injections *vectors*."""
    latches = list(vectors)
    history = []
    for _cycle in range(cycles):
        latches = or_step(latches, width, height)
        history.append(latches)
    return history


@pytest.mark.parametrize("quiescence", [True, False],
                         ids=["quiescent", "always-tick"])
@pytest.mark.parametrize("bits", [1, 2])
@pytest.mark.parametrize("width,height", [(3, 3), (6, 6), (10, 10)])
def test_or_mesh_follows_its_definition(width, height, bits, quiescence):
    n_nodes = width * height
    window = NotificationConfig.minimum_window(width, height)
    engine = Engine(quiescence=quiescence)
    net = NotificationNetwork(width, height,
                              NotificationConfig(bits_per_core=bits,
                                                 window=window), engine)
    rng = random.Random(f"{width}x{height}/{bits}")
    injected = [0] * n_nodes      # what each source answers when polled
    polled = []                   # source calls, in call order
    delivered = []                # (node, vector) sink calls

    def source(node):
        polled.append(node)
        return injected[node]

    for node in range(n_nodes):
        net.attach(node, lambda n=node: source(n),
                   lambda vector, n=node: delivered.append((n, vector)))

    def injectors(count):
        chosen = rng.sample(range(n_nodes), count)
        return [net.encode(node, rng.randint(1, (1 << bits) - 1))
                if node in chosen else 0 for node in range(n_nodes)]

    corner_pair = [0] * n_nodes
    corner_pair[0] = net.encode(0, 1)
    corner_pair[-1] = net.encode(n_nodes - 1, 1)
    windows = [injectors(rng.randint(1, n_nodes)), [0] * n_nodes,
               corner_pair, injectors(n_nodes), injectors(1), [0] * n_nodes]

    # The reference converges to the OR within the minimum window, and
    # the corner pair needs every hop of the diameter.
    diameter = (width - 1) + (height - 1)
    for vectors in windows:
        full = 0
        for vector in vectors:
            full |= vector
        history = reference_window(vectors, width, height, window)
        assert history[-1] == [full] * n_nodes
        converged = next(step for step, latches in enumerate(history)
                         if latches == [full] * n_nodes)
        if vectors is corner_pair:
            assert converged == diameter - 1

    def announce(vectors):
        injected[:] = vectors
        for node, vector in enumerate(vectors):
            if vector:
                net.announce(node)

    announce(windows[0])
    still_announced = set()       # answered non-zero at the last poll
    for index, vectors in enumerate(windows):
        start = index * window
        last = start + window - 1
        full = 0
        for vector in vectors:
            full |= vector
        announced = still_announced | {n for n, v in enumerate(vectors) if v}
        polled.clear()
        delivered.clear()
        for cycle in range(start, last):
            assert engine.cycle == cycle
            engine.tick()
            if cycle == start:
                assert polled == sorted(announced)
            assert delivered == []
        still_announced = {n for n in announced if vectors[n]}
        if quiescence:
            assert net._q_cell[0] == last        # asleep to the window end
        if index + 1 < len(windows):
            # Inside the window, the next window's injectors announce.
            announce(windows[index + 1])
        engine.tick()             # the window-end cycle
        assert polled == sorted(announced)
        if full:
            assert delivered == [(node, full) for node in range(n_nodes)]
        else:
            assert delivered == []
    assert net.stats.counter("notification.windows_nonempty") == 4
