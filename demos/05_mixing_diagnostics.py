"""Exact mixing diagnostics on an enumerable state space.

The kernel is symmetric and doubly stochastic, so the uniform law is
stationary.  The relaxation time 1/(1 - lambda_2) is bounded above by the
congestion of the canonical path system: the most loaded transition,
weighted over all realization pairs, all pairings, and the unit costs
1/(T pi).  Everything except the eigensolver runs in exact rationals.
"""

from degswap import BipartiteDegreeSequence
from degswap.mixing import (build_kernel, congestion, enumerate_states,
                            spectral_gap, tv_mixing_time)

for a, b in (((1, 1, 1), (1, 1, 1)), ((2, 2, 2), (3, 2, 1))):
    ds = BipartiteDegreeSequence(a, b)
    space = enumerate_states(ds)
    K = build_kernel(space)
    lam2, tau = spectral_gap(K)
    t = tv_mixing_time(K, 0.01)
    rep = congestion(space)
    print(f"{a} | {b}")
    print(f"  states {space.n}, jump probability {K.jump}")
    print(f"  lambda_2 = {lam2:.6f}, relaxation time = {tau:.4f}")
    print(f"  steps to reach 0.01 from uniform: {t}")
    print(f"  congestion kappa = {rep.kappa} = {float(rep.kappa):.3f} "
          f"(>= relaxation time: {tau <= float(rep.kappa) + 1e-8})")
    print(f"  most congested transition: states {rep.max_edge}")
    print(f"  max switch distance along all paths: {rep.max_switch_distance}")
    print()
