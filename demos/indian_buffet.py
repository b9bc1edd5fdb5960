"""The classic Indian buffet, recovered as a degenerate beta process.

At (xi, lam) = (-1, -1) the beta-Bernoulli rates collapse to mass/n: each
customer tries every known dish with probability popularity/n and then
samples Poisson(mass/n) brand-new dishes.  The script prints one buffet as
a binary table, then checks the new-dish rate empirically.
"""

import numpy as np

from expcrm import (
    BERNOULLI_BETA,
    MarginalSampler,
    RngState,
    auto_conjugate,
    new_atom_rate,
)

MASS = 2.0
CUSTOMERS = 8
SEED = 7


def draw_buffet(sampler, rng):
    """Dish locations in first-appearance order, one row per customer."""
    order = []
    rows = []
    for obs in sampler.sample(CUSTOMERS, rng):
        taken = set(obs.locations.tolist())
        for v in sorted(taken):
            if v not in order:
                order.append(v)
        rows.append(taken)
    return order, rows


def main():
    prior = auto_conjugate(BERNOULLI_BETA.make_likelihood(), MASS, (-1.0,), -1.0)
    sampler = MarginalSampler(prior)

    order, rows = draw_buffet(sampler, RngState(SEED, 0))
    print(f"one buffet, mass = {MASS:g}, {CUSTOMERS} customers, {len(order)} dishes:")
    for n, taken in enumerate(rows, start=1):
        line = "".join("#" if v in taken else "." for v in order)
        print(f"  customer {n}: {line}")

    reps = 4000
    print(f"\nnew dishes per customer over {reps} buffets:")
    gen = RngState(SEED, 1).generator()
    new = np.zeros(CUSTOMERS)
    for _ in range(reps):
        seen = set()
        for n, obs in enumerate(sampler.sample(CUSTOMERS, gen)):
            fresh = set(obs.locations.tolist()) - seen
            new[n] += len(fresh)
            seen |= fresh
    for n in range(CUSTOMERS):
        exact = new_atom_rate(prior, n + 1, 1)
        print(
            f"  customer {n + 1}: mean {new[n] / reps:.4f}, "
            f"rate mass/{n + 1} = {exact:.4f}"
        )


if __name__ == "__main__":
    main()
