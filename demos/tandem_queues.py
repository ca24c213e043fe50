#!/usr/bin/env python3
"""Burke's theorem in a tandem of exponential servers.

In equilibrium (Poisson(rho) arrivals, initial queue lengths iid with the
M/M/1 stationary law P(L = k) = (1-rho) rho^k), the departure stream of
every queue is again Poisson(rho), and each queue length keeps its
geometric law for all time.
"""

import numpy as np
from scipy import stats

from stasep import SeedSpec
from stasep.experiments import tandem_queue_sim

rho = 0.5
lengths, departures = tandem_queue_sim(rho, n_queues=3, t_end=8000.0,
                                       seed=SeedSpec(4, 0))
gaps = np.diff(np.array(departures[2]))
ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / rho))
print(f"tandem of 3 queues, rho = {rho}, {len(gaps) + 1} departures from the last one")
print(f"inter-departure mean {gaps.mean():.4f} (Burke: {1/rho:.1f}),"
      f" KS vs Exp p-value = {ks.pvalue:.3f}")

lens = []
for rep in range(1, 3001):
    l, _ = tandem_queue_sim(rho, 1, 5.0, SeedSpec(4, rep))
    lens.append(l[0])
lens = np.array(lens)
print("\nqueue length at t=5 across replicas vs (1-rho) rho^k:")
for k in range(5):
    print(f"  P(len={k}) = {np.mean(lens == k):.4f}   (exact {(1-rho) * rho**k:.4f})")
