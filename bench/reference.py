"""Reference values for the benchmark's correctness checks, computed apart from expcrm.

Everything here uses ``scipy.special``, ``scipy.stats`` and plain arithmetic
only; nothing imports the package under test.  The closed forms are the
gamma-process and beta-process identities the samplers must reproduce:

* gamma process with Poisson counts, ordinary rate
  ``mass * theta^xi * exp(-lam * theta)``:

  - rate of round-m atoms with count x:
    ``M(m, x) = mass * Gamma(xi + x + 1) / (x! * (lam + m)^(xi + x + 1))``;
  - round total: ``T(m) = mass * Gamma(s) * ((lam + m - 1)^-s - (lam + m)^-s)``
    with ``s = xi + 1`` (``mass * log((lam + m) / (lam + m - 1))`` at s = 0);
  - expected atoms in rounds 1..M, the telescoped sum of T:
    ``mass * Gamma(s + 1) / s * (lam^-s - (lam + M)^-s)``;
  - expected total weight in rounds 1..M:
    ``mass * Gamma(xi + 2) * (lam^-(xi + 2) - (lam + M)^-(xi + 2))``;
  - the weight law of a round-m, count-x atom:
    ``Gamma(shape = xi + x + 1, rate = lam + m)``.

* beta process (alpha = 0) with Bernoulli counts: the number of new atoms at
  step i is Poisson(mass * theta / (theta + i - 1)), independently over steps.

Run ``python3 bench/reference.py`` for the self-test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats


def _s_pow_diff(a: float, b: float, s: float) -> float:
    """(a^-s - b^-s) / s, with its s -> 0 limit log(b / a)."""
    if s == 0.0:
        return math.log(b / a)
    return (a ** (-s) - b ** (-s)) / s


def gamma_rate(mass: float, xi: float, lam: float, m: int, x: int) -> float:
    """M(m, x): expected round-m atoms first seen with count x."""
    a = xi + x + 1.0
    return mass * math.exp(special.gammaln(a) - special.gammaln(x + 1.0) - a * math.log(lam + m))


def gamma_round_total(mass: float, xi: float, lam: float, m: int) -> float:
    """T(m): expected round-m atoms over all positive counts."""
    s = xi + 1.0
    return mass * special.gamma(s + 1.0) * _s_pow_diff(lam + m - 1.0, lam + m, s)


def gamma_expected_atoms(mass: float, xi: float, lam: float, rounds: int) -> float:
    """Expected atoms in rounds 1..rounds (the telescoped sum of T)."""
    s = xi + 1.0
    return mass * special.gamma(s + 1.0) * _s_pow_diff(lam, lam + rounds, s)


def gamma_expected_total_weight(mass: float, xi: float, lam: float, rounds: int) -> float:
    """Expected summed weight of the atoms in rounds 1..rounds."""
    r = xi + 2.0
    return mass * special.gamma(r) * (lam ** (-r) - (lam + rounds) ** (-r))


def gamma_weight_pit(weights, xi: float, lam: float, rounds, counts) -> np.ndarray:
    """Probability-integral transform of weights under their cell's gamma law."""
    counts = np.asarray(counts, dtype=float)
    rounds = np.asarray(rounds, dtype=float)
    return stats.gamma.cdf(np.asarray(weights, dtype=float), xi + counts + 1.0, scale=1.0 / (lam + rounds))


def ks_uniform_pvalue(u) -> float:
    """p-value of the one-sample KS test of ``u`` against Uniform(0, 1)."""
    return float(stats.kstest(np.asarray(u, dtype=float), "uniform").pvalue)


def ibp_expected_new_atoms(mass: float, theta: float, n: int) -> float:
    """Expected new atoms over steps 1..n of a beta process with alpha = 0."""
    return sum(mass * theta / (theta + i - 1.0) for i in range(1, n + 1))


def poisson_interval(mean: float, z: float) -> tuple[float, float]:
    """mean -/+ z standard deviations of a Poisson count."""
    half = z * math.sqrt(mean)
    return mean - half, mean + half


# --- self-test ---------------------------------------------------------------------


def self_test() -> list[str]:
    """Check each reference against an identity or a known value; return failures."""
    failures = []

    def expect(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    # known values: gamma process (1, -1, 1) has M(2, 3) = 2! / (3! 3^3) = 1/81, T(1) = log 2
    expect("gamma_rate known value", math.isclose(gamma_rate(1.0, -1.0, 1.0, 2, 3), 1.0 / 81.0, rel_tol=1e-13))
    expect("gamma_round_total at s = 0", math.isclose(gamma_round_total(1.0, -1.0, 1.0, 1), math.log(2.0), rel_tol=1e-13))
    # the closed-form figures bench/README.md quotes for the stable gamma workload
    expect("expected atoms 217.22", abs(gamma_expected_atoms(2.0, -1.5, 1.0, 1000) - 217.22) < 0.01)
    expect("expected weight 3.4329", abs(gamma_expected_total_weight(2.0, -1.5, 1.0, 1000) - 3.4329) < 1e-4)

    for mass, xi, lam in ((2.0, -1.5, 1.0), (2.0, -1.2, 1.1), (1.0, -1.0, 1.0)):
        # telescoping: summed round totals equal the closed-form atom count
        summed = math.fsum(gamma_round_total(mass, xi, lam, m) for m in range(1, 41))
        expect(f"telescoping at xi={xi}", math.isclose(summed, gamma_expected_atoms(mass, xi, lam, 40), rel_tol=1e-11))
        # rows: a round total is the sum of its count rates
        for m in (1, 7):
            row = math.fsum(gamma_rate(mass, xi, lam, m, x) for x in range(1, 400))
            expect(f"row sum at xi={xi}, m={m}", math.isclose(row, gamma_round_total(mass, xi, lam, m), rel_tol=1e-10))
        # weights: rate times the cell's gamma mean, summed, is the total weight
        weight = math.fsum(
            gamma_rate(mass, xi, lam, m, x) * (xi + x + 1.0) / (lam + m)
            for m in range(1, 21)
            for x in range(1, 400)
        )
        expect(f"total weight at xi={xi}", math.isclose(weight, gamma_expected_total_weight(mass, xi, lam, 20), rel_tol=1e-10))

    expect("ibp harmonic", math.isclose(ibp_expected_new_atoms(5.0, 1.0, 500), 5.0 * math.fsum(1.0 / i for i in range(1, 501)), rel_tol=1e-13))
    expect("ibp first step", ibp_expected_new_atoms(5.0, 1.0, 1) == 5.0)

    lo, hi = poisson_interval(100.0, 3.0)
    expect("poisson interval", (lo, hi) == (70.0, 130.0))

    # the PIT/KS pair accepts the right law and rejects a wrong one
    gen = np.random.default_rng(12345)
    counts = gen.integers(1, 4, size=3000)
    rounds = gen.integers(1, 6, size=3000)
    w = gen.gamma(-1.2 + counts + 1.0, 1.0 / (1.1 + rounds))
    expect("PIT accepts the right law", ks_uniform_pvalue(gamma_weight_pit(w, -1.2, 1.1, rounds, counts)) > 1e-4)
    expect("PIT rejects a wrong law", ks_uniform_pvalue(gamma_weight_pit(w, -1.2, 1.1, rounds, counts + 1)) < 1e-6)
    return failures


if __name__ == "__main__":
    bad = self_test()
    for name in bad:
        print(f"FAIL {name}")
    print("reference self-test: " + ("ok" if not bad else f"{len(bad)} failed"))
    raise SystemExit(1 if bad else 0)
