"""Conjugate updates, twice over.

First a gamma/Poisson model in exponential coordinates: observe two count
measures, read the shifted hyperparameters off the posterior, and watch the
predictive pmf at a location sharpen.  Then the beta/negative-binomial pair
in its native parametrization, where the update is the textbook arithmetic
theta + r, Beta(rho + x, sigma + r).
"""

import numpy as np

from expcrm import (
    Location,
    ObservationMeasure,
    POISSON_GAMMA,
    auto_conjugate,
    get_entry,
    iterated_equals_batch,
    posterior_update,
    predictive_logpmf,
)


def obs(*pairs):
    return ObservationMeasure([c for _, c in pairs], [v for v, _ in pairs])


def show_predictive(like, xi, lam, label):
    pmf = np.exp(predictive_logpmf(like, xi, lam, np.arange(6)))
    cells = "  ".join(f"{p:.3f}" for p in pmf)
    print(f"  p(x | {label}) for x = 0..5:  {cells}")


def main():
    like = POISSON_GAMMA.make_likelihood()
    prior = auto_conjugate(like, 1.0, (-1.0,), 1.0)
    data = [obs((0.25, 3), (0.6, 1)), obs((0.25, 2))]
    post = posterior_update(prior, data)

    print("gamma/Poisson, prior (mass=1, xi=-1, lam=1), two observations:")
    print(f"  ordinary component: xi = {post.xi[0]:g}, lam = {post.lam:g}")
    for atom in post.fixed_atoms:
        print(
            f"  atom at {atom.location.value:g}: xi = {atom.xi[0]:g}, lam = {atom.lam:g}"
        )
    print(f"  batch update equals one-at-a-time: {iterated_equals_batch(prior, data)}")

    # the ordinary (xi, lam) is improper by design (A1: infinite mass), so
    # a predictive only exists once a location has been observed at least once
    print("\npredictive at location 0.25 (counts 3 then 2):")
    mid = posterior_update(prior, data[:1]).atom_at(Location(0.25))
    show_predictive(like, mid.xi, mid.lam, "count 3 in 1 look")
    a = post.atom_at(Location(0.25))
    show_predictive(like, a.xi, a.lam, "5 events in 2 looks")

    # native coordinates: the same engine, different bookkeeping
    r = 2.0
    entry = get_entry("negative_binomial", r)
    nb = entry.from_native(1.0, 0.25, 1.5, fixed=((0.4, 2.0, 3.0),))
    nb_post = posterior_update(nb, [obs((0.4, 4), (0.9, 1))])
    at = nb_post.atom_at(Location(0.4))
    born = nb_post.atom_at(Location(0.9))
    theta_post = nb_post.lam * r + 1.0 - (-nb_post.xi[0] - 1.0)
    print(f"\nbeta/negative-binomial (r={r:g}), native (alpha=0.25, theta=1.5):")
    print(f"  theta + r            -> {theta_post:g}")
    print(
        f"  Beta(2, 3) atom, x=4 -> Beta({at.xi[0] + 1:g}, {at.lam * r + 1:g})"
    )
    print(
        f"  new atom, x=1        -> Beta({born.xi[0] + 1:g}, {born.lam * r + 1:g})"
    )


if __name__ == "__main__":
    main()
