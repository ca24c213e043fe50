#!/usr/bin/env python3
"""Two fluctuation universes for the same model.

Away from the critical direction the passage time is Gaussian on the
sqrt(N) scale (border-dominated paths): the script standardizes it and
reports Kolmogorov-Smirnov distances to N(0,1).  On the critical direction
it is KPZ: T^(1/3) fluctuations whose law at tau = 0 is the Baik-Rains F_0,
so there the script compares the rescaled samples with F_0 itself.
"""

import numpy as np

from stasep.experiments import gaussian_offchar_validate, mc_vs_limit, offchar_gammas
from stasep.scaling import ScalingFrame

RHO = 0.5


def main():
    labels = ("off-critical (4 gamma_c)", "off-critical (gamma_c/4)")
    for gamma, label in zip(offchar_gammas(RHO), labels):
        rep = gaussian_offchar_validate(RHO, gamma, n_scale=1200, n_samples=1500,
                                        master_seed=17)
        verdict = "looks Gaussian" if rep.statistic <= 0.05 else "NOT Gaussian"
        print(f"{label:30s} KS = {rep.statistic:.4f}  -> {verdict}")
        print(f"{'':30s} variance coeff {rep.extras['var_coeff']:.3g} "
              f"vs sample {rep.extras['sample_var']:.3f}")

    rep = mc_vs_limit(ScalingFrame(T=500.0, rho=RHO), (0.0,), 10**4, 17,
                      [[float(s)] for s in np.arange(-3.0, 3.25, 0.5)])
    verdict = "matches F_0" if rep.passed else "does NOT match F_0"
    print(f"{'critical direction (tau = 0)':30s} sup |F_emp - F_0| = {rep.statistic:.4f}"
          f"  -> {verdict}")
    print(f"{'':30s} sample variance of s {rep.extras['var_s'][0]:.3f} "
          f"(F_0: 1.150)")


# Monte Carlo sweeps may run in worker processes, which re-import this file
# under start methods other than fork
if __name__ == "__main__":
    main()
