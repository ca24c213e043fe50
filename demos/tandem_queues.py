#!/usr/bin/env python3
"""Burke's theorem in the tandem-queue view of stationary TASEP.

Particle j is customer j, standing in queue x_j(t) + j; each hole is a
unit-rate server, and a jump is a service completion.  So E_j(i), the time
customer j leaves queue i, is a TASEP jump time (queue_exit_time), and the
pathwise bridge ties it to a last-passage value bit for bit.  Bernoulli(rho)
initial data start every queue in equilibrium: the queue lengths, the runs
of particles between consecutive holes, are iid with the M/M/1 law
P(L = k) = (1-rho) rho^k, and by Burke's theorem the departures from every
queue form a Poisson(rho) stream, for all time.
"""

import numpy as np
from scipy import stats

from stasep import (SeedSpec, WaitingTimes, evolve, init_stationary,
                    queue_exit_time, stationary_window)

rho, n_customers = 0.5, 200
seed = SeedSpec(4, 0)
t_end = 2.2 * (n_customers / rho + 6)
# customers behind the last one never delay it: no margin on the left
lo = int(-n_customers / rho - 200)
state = init_stationary(rho, (lo, stationary_window(lo, 50, t_end)[1]), seed)
_, log = evolve(state, WaitingTimes(seed), t_end, record=True)

print(f"rho = {rho}: departures of customers 1..{n_customers} from three queues")
for i in (0, 3, 6):
    exits = []
    for j in range(1, n_customers + 1):
        t = queue_exit_time(log, j, i)
        if t is None:
            break
        exits.append(t)
    gaps = np.diff(np.array(exits))
    ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / rho))
    print(f"  queue {i}: {len(exits)} departures, inter-departure mean {gaps.mean():.3f}"
          f" (Burke: {1 / rho:.1f}), KS vs Exp p-value = {ks.pvalue:.3f}")

# queue lengths at t = 5 on sites where the evolution is exact
obs = (-2000, 2000)
state = init_stationary(rho, stationary_window(*obs, 5.0), SeedSpec(4, 1))
final, _ = evolve(state, WaitingTimes(SeedSpec(4, 1)), 5.0)
holes = np.flatnonzero(final.occupation(*obs) == 0)
lens = np.diff(holes) - 1
print(f"\nlengths of {len(lens)} queues at t = 5 vs (1-rho) rho^k:")
for k in range(5):
    print(f"  P(len={k}) = {np.mean(lens == k):.4f}   (exact {(1 - rho) * rho**k:.4f})")
