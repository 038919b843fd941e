"""The notification mesh against its definition (Sec. 3.3).

Each router is five OR gates and a latch, so after every cycle of an
active window every latch must hold the OR of the previous cycle's
latches over its closed mesh neighbourhood — computed here from the
coordinates, never by the network.  A network that delivers a bit early
or skips a hop fails the per-cycle equality; one that stops merging too
soon fails the convergence bound; one that forgets its boundary cycles
fails the sink count or the sleep-cell check.
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


@pytest.mark.parametrize("quiescence", [True, False],
                         ids=["quiescent", "always-tick"])
@pytest.mark.parametrize("bits", [1, 2])
@pytest.mark.parametrize("width,height", [(3, 3), (6, 6), (10, 10)])
def test_or_mesh_follows_its_definition(width, height, bits, quiescence):
    n_nodes = width * height
    bound = (width - 1) + (height - 1) + 1
    window = bound + 2            # two cycles of converged mesh to observe
    engine = Engine(quiescence=quiescence)
    net = NotificationNetwork(width, height,
                              NotificationConfig(bits_per_core=bits,
                                                 window=window), engine)
    rng = random.Random(f"{width}x{height}/{bits}")
    injected = [0] * n_nodes      # what each source answers this window
    delivered = []                # (node, vector) sink calls
    for node in range(n_nodes):
        net.attach(node, lambda n=node: injected[n],
                   lambda vector, n=node: delivered.append((n, vector)))

    def injectors(count):
        chosen = rng.sample(range(n_nodes), count)
        return [net.encode(node, rng.randint(1, (1 << bits) - 1))
                if node in chosen else 0 for node in range(n_nodes)]

    corner_pair = [0] * n_nodes
    corner_pair[0] = net.encode(0, 1)
    corner_pair[-1] = net.encode(n_nodes - 1, 1)
    windows = [injectors(rng.randint(1, n_nodes)), [0] * n_nodes,
               corner_pair, injectors(n_nodes), injectors(1)]

    for index, vectors in enumerate(windows):
        start = index * window
        last = start + window - 1
        injected[:] = vectors
        full = 0
        for vector in vectors:
            full |= vector
        delivered.clear()
        previous = list(vectors)
        converged_at = None
        for cycle in range(start, last):
            assert engine.cycle == cycle
            engine.tick()
            latches = [router.accum for router in net.routers]
            assert latches == or_step(previous, width, height), \
                f"window {index} cycle {cycle - start}"
            if converged_at is None and latches == previous:
                converged_at = cycle
            if cycle - start + 1 >= bound:
                assert latches == [full] * n_nodes
            if quiescence:
                # Awake while latches move; from the first cycle none
                # did (cycle 0 of a quiet window), asleep to the
                # window-end delivery.
                wake_cycle = net._q_cell[0]
                if converged_at is None:
                    assert wake_cycle <= cycle + 1
                else:
                    assert wake_cycle == last
            previous = latches
            assert delivered == []
        assert converged_at is not None
        if not full:
            assert converged_at == start
        engine.tick()             # the window-end cycle
        assert delivered == [(node, full) for node in range(n_nodes)]
        assert all(router.accum == 0 for router in net.routers)
        if quiescence:
            assert net._q_cell[0] <= last + 1     # up for the source poll
    assert net.stats.counter("notification.windows_nonempty") == 4
