"""Monte-Carlo oracle for the analytical model: simulates the candidate
coordination process by raw per-link Bernoulli draws on a frozen topology.
No mobility, no learning, no engine code; deliberately independent of the
closed forms it cross-checks.
"""

import math
import random


def run_trials(topo, source: int, trials: int, seed: int = 0):
    """Returns (delivered_count, mean_delay_of_delivered).

    Each trial walks the packet from `source`: the first candidate in
    priority order whose link draw succeeds becomes the forwarder; it waits
    its holding time (list head waits nothing) and relays. A trial with no
    successful candidate is lost.
    """
    rng = random.Random(seed)
    k = topo.holding.k
    v0 = topo.sound_speed_mps
    delivered = 0
    delay_sum = 0.0
    for _ in range(trials):
        current = source
        delay = 0.0
        while True:
            forwarder = None
            position = 0
            for idx, cand in enumerate(topo.candidates.get(current, ())):
                if rng.random() < topo.link_prob[(current, cand)]:
                    forwarder = cand
                    position = idx + 1
                    break
            if forwarder is None:
                break
            delay += math.dist(topo.positions[current], topo.positions[forwarder]) / v0
            if topo.is_sink(forwarder):
                delivered += 1
                delay_sum += delay
                break
            delay += k * (position - 1)
            current = forwarder
    mean_delay = delay_sum / delivered if delivered else float("nan")
    return delivered, mean_delay
