"""Monte-Carlo oracle for the analytical model: simulates the candidate
coordination process by raw per-link Bernoulli draws on a frozen topology.
No mobility, no learning, no engine code; deliberately independent of the
closed forms it cross-checks.
"""

import math
import random
import statistics


def run_trials(topo, source: int, trials: int, seed: int = 0):
    """Returns (delivered_count, mean_delay_of_delivered, its standard error).

    Each trial walks the packet from `source`: the first candidate in
    priority order whose link draw succeeds becomes the forwarder; each hop
    takes the airtime and the link's propagation delay, and the forwarder
    waits its holding time (list head waits nothing) and relays. A trial
    with no successful candidate is lost. The standard error of the mean is
    the sample standard deviation of the delivered delays over the square
    root of their count (NaN below two deliveries); it is exactly 0 when
    every delivered packet took the same time.
    """
    rng = random.Random(seed)
    k = topo.holding_k_s
    airtime = topo.seconds_per_packet
    delays = []  # of the delivered trials, in trial order
    for _ in range(trials):
        current = source
        delay = 0.0
        while True:
            forwarder = None
            position = 0
            for idx, (cand, (hop, p)) in enumerate(zip(topo.candidates.get(current, ()),
                                                       topo.links.get(current, ()))):
                if rng.random() < p:
                    forwarder = cand
                    position = idx + 1
                    break
            if forwarder is None:
                break
            delay += airtime + hop
            if topo.kinds[forwarder] == "sink":
                delays.append(delay)
                break
            delay += k * (position - 1)
            current = forwarder
    delivered = len(delays)
    mean_delay = sum(delays) / delivered if delivered else float("nan")
    if delivered < 2:
        return delivered, mean_delay, float("nan")
    # `statistics` sums exactly, so equal delays have a deviation of exactly 0
    return delivered, mean_delay, statistics.stdev(delays) / math.sqrt(delivered)
