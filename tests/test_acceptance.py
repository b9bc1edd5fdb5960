"""Release gates, one test per criterion, one verdict line each.

Every test prints a single [PASS]/[FAIL] line through the capture-disabled
writer, so any pytest run shows the checklist regardless of capture mode.
Tolerances and runtime budgets are stated inline next to each criterion;
the Monte Carlo seeds are fixed constants chosen up front, not tuned.
"""

import math
import time

import numpy as np
from scipy import stats
from scipy.special import gammaln

from expcrm import (
    BERNOULLI_BETA,
    FixedAtomParams,
    Location,
    MarginalConfig,
    MarginalSampler,
    ObservationMeasure,
    ODDS_BERNOULLI_BETA_PRIME,
    POISSON_GAMMA,
    RngState,
    SizeBiasedConfig,
    SizeBiasedSampler,
    auto_conjugate,
    get_entry,
    hyperparam_valid,
    iterated_equals_batch,
    new_atom_rate,
    posterior_update,
    predictive_logpmf,
    rate_M,
    round_total,
    weight_dist_params,
    weight_rate_density,
)
from expcrm.checks import (
    chi_square_gof,
    chi_square_two_sample,
    oracle_log_partition,
    oracle_predictive_pmf,
    oracle_rate_M,
)

GOF_REPS = 100_000
SEED_SIZE_BIASED = 52551
SEED_MARGINAL = 52552
SEED_IBP = 52553
SEED_EQUIV_GAMMA = 52661
SEED_EQUIV_BETA = 52662


def _verdict(capsys, num, label, failures, t0, budget):
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    with capsys.disabled():
        print(
            f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} "
            f"({elapsed:.1f}s, budget {budget:g}s)"
        )
    if failures:
        raise AssertionError(f"criterion {num}: " + "; ".join(failures[:12]))
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.1f}s >= {budget:g}s"


def _random_valid(rng, family):
    """(entry, mass, xi0, lam) drawn from the family's validity region.

    Margins keep quadrature oracles comfortable: xi away from both region
    edges, the lam-side slack at least 0.15.
    """
    if family == "negative_binomial":
        entry = get_entry(family, float(rng.uniform(0.3, 3.0)))
    else:
        entry = get_entry(family)
    mass = float(rng.uniform(0.5, 3.0))
    xi0 = float(rng.uniform(-1.9, -1.05))
    slack = float(rng.uniform(0.15, 3.0))
    if family == "poisson":
        lam = slack
    elif family == "bernoulli":
        lam = xi0 - 1.0 + slack
    elif family == "odds_bernoulli":
        lam = xi0 + 1.0 + slack
    else:
        lam = (-1.0 + slack) / entry.r
    return entry, mass, xi0, lam


def test_criterion_1_negative_binomial_conjugacy(capsys):
    """Posterior in native coordinates: theta + r, Beta(rho+x, sigma+r),
    Beta(-alpha+x, theta+alpha+r), over 100 randomized inputs.

    Half the inputs sit on a dyadic grid with r a power of two; there every
    intermediate is exact in binary floats and the match must be bitwise.
    The generic-real half is held to relative 1e-12.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(11001)
    failures = []

    def eighths(lo, hi):
        return float(rng.integers(round(lo * 8), round(hi * 8) + 1)) / 8.0

    def exact(a, b):
        return a == b

    def approx(a, b):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    for trial in range(100):
        if trial % 2 == 0:
            r = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]))
            alpha = eighths(0.0, 0.875)
            theta = -alpha + eighths(0.125, 3.0)
            mass = eighths(0.125, 5.0)
            rho, sigma = eighths(0.125, 4.0), eighths(0.125, 4.0)
            close = exact
        else:
            r = float(rng.uniform(0.3, 4.0))
            alpha = float(rng.uniform(0.0, 0.95))
            theta = -alpha + float(rng.uniform(0.05, 3.0))
            mass = float(rng.uniform(0.2, 5.0))
            rho, sigma = float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0))
            close = approx

        entry = get_entry("negative_binomial", r)
        prior = entry.from_native(mass, alpha, theta, fixed=((0.5, rho, sigma),))
        x_fixed = int(rng.integers(0, 7))  # 0: the observation skips the atom
        x_new = int(rng.integers(1, 7))
        counts, locations = [x_new], [0.8]
        if x_fixed:
            counts.append(x_fixed)
            locations.append(0.5)
        post = posterior_update(prior, [ObservationMeasure(counts, locations)])

        # back to native coordinates: alpha = -xi - 1, b = lam * r + 1
        alpha_post = -post.xi[0] - 1.0
        fixed = post.atom_at(Location(0.5))
        born = post.atom_at(Location(0.8))
        got = (
            post.mass,
            alpha_post,
            post.lam * r + 1.0 - alpha_post,
            fixed.xi[0] + 1.0,
            fixed.lam * r + 1.0,
            born.xi[0] + 1.0,
            born.lam * r + 1.0,
        )
        want = (
            mass,
            alpha,
            theta + r,
            rho + x_fixed,
            sigma + r,
            -alpha + x_new,
            theta + alpha + r,
        )
        names = ("mass", "alpha", "theta", "rho'", "sigma'", "a_new", "b_new")
        for g, w, which in zip(got, want, names):
            if not close(g, w):
                failures.append(f"trial {trial}: {which} = {g!r}, expected {w!r}")
    _verdict(capsys, 1, "negative binomial conjugacy arithmetic", failures, t0, 1.0)


def test_criterion_2_automatic_conjugacy_closure(capsys):
    """auto_conjugate then posterior_update stays valid, and the posterior
    ordinary kernel equals mass * h(0)^N * exp{(xi + N phi(0)) eta - (lam + N) A}
    to relative 1e-12, for every catalog pair."""
    t0 = time.perf_counter()
    failures = []
    cases = [
        (POISSON_GAMMA, 1.3, -1.4, 0.8),
        (BERNOULLI_BETA, 0.9, -1.5, 1.2),
        (ODDS_BERNOULLI_BETA_PRIME, 1.1, -1.6, 0.2),
        (get_entry("negative_binomial", 2.5), 0.7, -1.25, 0.4),
    ]
    for entry, mass, xi0, lam in cases:
        like = entry.make_likelihood()
        prior = auto_conjugate(like, mass, (xi0,), lam)
        cap = like.support_bound or 4
        obs = [
            ObservationMeasure([min(2, cap), 1], [0.3, 0.7]),
            ObservationMeasure([min(3, cap)], [0.7]),
            ObservationMeasure([], []),
        ]
        post = posterior_update(prior, obs)
        res = hyperparam_valid(post.as_prior())
        if not res.ok:
            failures.append(f"{entry.family}: posterior rejected: {res.reason}")
            continue
        n = len(obs)
        upper = like.weight_domain.upper
        grid = (
            np.linspace(0.02, 0.98 * upper, 50)
            if math.isfinite(upper)
            else np.geomspace(1e-3, 25.0, 50)
        )
        eta = like.eta(grid)[:, 0]
        want = mass * np.exp(
            n * like.log_h(0) + (xi0 + n * like.phi(0)[0]) * eta - (lam + n) * like.A(grid)
        )
        got = weight_rate_density(post.as_prior(), grid)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
        if rel.max() > 1e-12:
            worst = grid[int(rel.argmax())]
            failures.append(
                f"{entry.family}: kernel off by {rel.max():.3e} at theta = {worst:.4g}"
            )
    _verdict(capsys, 2, "automatic conjugacy closure", failures, t0, 5.0)


def test_criterion_3_closed_forms_match_quadrature(capsys):
    """Analytic log partition, atom rates, and predictive pmfs against
    quadrature of the literal integrals, 20 random settings per family,
    relative 1e-8; the beta-Bernoulli and gamma-Poisson rate closed forms
    are re-derived inline from gamma functions as an extra cross-check.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(11003)
    failures = []
    for family in ("poisson", "bernoulli", "odds_bernoulli", "negative_binomial"):
        for _ in range(20):
            entry, mass, xi0, lam = _random_valid(rng, family)
            like = entry.make_likelihood()
            prior = auto_conjugate(like, mass, (xi0,), lam)
            m = int(rng.integers(1, 4))
            x = 1 if like.support_bound == 1 else int(rng.integers(1, 4))
            tag = f"{entry.family} (mass={mass:.3g}, xi={xi0:.3g}, lam={lam:.3g}, m={m}, x={x})"

            xi_eff, lam_eff = weight_dist_params(prior, m, x)
            for rep in (
                oracle_log_partition(prior, xi_eff, lam_eff),
                oracle_rate_M(prior, m, x),
                oracle_predictive_pmf(prior, xi_eff, lam_eff, x_hi=3),
            ):
                if not rep.statistic <= 1e-8:
                    failures.append(f"{tag}: {rep}")

            if family == "bernoulli":
                closed = mass * math.exp(
                    gammaln(xi0 + x + 1.0)
                    + gammaln(lam - xi0 + m - x + 1.0)
                    - gammaln(lam + m + 2.0)
                )
            elif family == "poisson":
                closed = mass * math.exp(
                    gammaln(xi0 + x + 1.0)
                    - gammaln(x + 1.0)
                    - (xi0 + x + 1.0) * math.log(lam + m)
                )
            else:
                continue
            got = rate_M(prior, m, x)
            if abs(got - closed) > 1e-8 * abs(closed):
                failures.append(f"{tag}: rate {got!r} vs gamma-function form {closed!r}")
    _verdict(capsys, 3, "closed forms against quadrature", failures, t0, 30.0)


def test_criterion_4_known_values(capsys):
    """Hand-computable anchors, tolerance 1e-10: the unit gamma process
    rates, and the classic buffet behavior of the degenerate beta process."""
    t0 = time.perf_counter()
    gamma = auto_conjugate(POISSON_GAMMA.make_likelihood(), 1.0, (-1.0,), 1.0)
    values = [
        ("gamma M(1,1)", rate_M(gamma, 1, 1), 0.5),
        ("gamma round-1 total", round_total(gamma, 1), math.log(2.0)),
    ]
    ibp_mass = 1.3
    ibp = auto_conjugate(BERNOULLI_BETA.make_likelihood(), ibp_mass, (-1.0,), -1.0)
    for n in (1, 2, 3, 5, 8):
        values.append(
            (f"new dish rate, customer {n}", new_atom_rate(ibp, n, 1), ibp_mass / n)
        )
    # dish taken by customer 1 alone: accumulated (xi + 1, lam + 1) = (0, 0),
    # so customer 2 takes it with probability 1/2
    p_take = float(np.exp(predictive_logpmf(ibp.likelihood, (0.0,), 0.0, np.array([1])))[0])
    values.append(("second customer takes a once-taken dish", p_take, 0.5))
    failures = [
        f"{name}: {got!r} vs {want!r}"
        for name, got, want in values
        if not math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)
    ]
    _verdict(capsys, 4, "known values", failures, t0, 1.0)


def test_criterion_5_sampler_distributions(capsys):
    """Sampler outputs against their Poisson laws at 1e5 replicates:
    size-biased cell counts ~ Poisson(M(m,x)), marginal new-atom counts
    ~ Poisson(M(n,x)), buffet new dishes ~ Poisson(mass/n); p > 0.01."""
    t0 = time.perf_counter()
    failures = []
    pvals = []

    def fit(samples, mu, name):
        rep = chi_square_gof(
            samples, lambda k, mu=mu: stats.poisson.logpmf(k, mu), name=name
        )
        pvals.append(rep.statistic)
        if not rep.passed:
            failures.append(str(rep))

    gamma = auto_conjugate(POISSON_GAMMA.make_likelihood(), 1.0, (-1.0,), 1.0)

    # (a) size-biased table cells; rates 1/2, 1/8, 1/3 by the closed form
    sb = SizeBiasedSampler(gamma, SizeBiasedConfig(m_max=3, x_max=60, eps_tail=1e-6))
    gen = RngState(SEED_SIZE_BIASED, 0).generator()
    cells = {(1, 1): 0.5, (1, 2): 0.125, (2, 1): 1.0 / 3.0}
    hits = {cell: np.empty(GOF_REPS, dtype=np.int64) for cell in cells}
    for i in range(GOF_REPS):
        draw = sb.draw_labeled(gen)
        for (m, x) in cells:
            hits[(m, x)][i] = np.count_nonzero((draw.rounds == m) & (draw.counts == x))
    for (m, x), mu in cells.items():
        fit(hits[(m, x)], mu, f"size-biased cell ({m},{x})")

    # (b) marginal new atoms at steps 1 and 2, count 1: rates 1/2 and 1/3
    ms = MarginalSampler(gamma, MarginalConfig(x_max=60))
    gen = RngState(SEED_MARGINAL, 0).generator()
    new1 = np.empty(GOF_REPS, dtype=np.int64)
    new2 = np.empty(GOF_REPS, dtype=np.int64)
    for i in range(GOF_REPS):
        first, second = ms.sample(2, gen)
        seen = {a.location.value for a in first.atoms}
        new1[i] = sum(1 for a in first.atoms if a.count == 1)
        new2[i] = sum(
            1 for a in second.atoms if a.count == 1 and a.location.value not in seen
        )
    fit(new1, 0.5, "marginal new atoms, step 1, count 1")
    fit(new2, 1.0 / 3.0, "marginal new atoms, step 2, count 1")

    # (c) the buffet degeneracy: new dishes at customer n ~ Poisson(1/n)
    ibp = auto_conjugate(BERNOULLI_BETA.make_likelihood(), 1.0, (-1.0,), -1.0)
    ms = MarginalSampler(ibp, MarginalConfig())
    gen = RngState(SEED_IBP, 0).generator()
    dishes = np.empty((GOF_REPS, 3), dtype=np.int64)
    for i in range(GOF_REPS):
        seen = set()
        for n, obs in enumerate(ms.sample(3, gen)):
            fresh = [a for a in obs.atoms if a.location.value not in seen]
            dishes[i, n] = len(fresh)
            seen.update(a.location.value for a in obs.atoms)
    for n in range(3):
        fit(dishes[:, n], 1.0 / (n + 1), f"new dishes, customer {n + 1}")

    label = f"sampler output distributions (min p = {min(pvals):.3f})"
    _verdict(capsys, 5, label, failures, t0, 180.0)


def _joint_paths(prior, seed, reps, m_max):
    """Per-step (positive atoms, count sum) for both generation paths.

    Size-biased path: draw the truncated measure, then emit counts from the
    likelihood at each atom, independently per step.  Marginal path: the
    sequential sampler.  Returns two [step][rep] lists of pairs.
    """
    like = prior.likelihood
    sb = SizeBiasedSampler(prior, SizeBiasedConfig(m_max=m_max, x_max=50, eps_tail=1e-5))
    gen = RngState(seed, 0).generator()
    sb_stats = [[None] * reps for _ in range(3)]
    for i in range(reps):
        weights = sb.draw_labeled(gen).weights
        for n in range(3):
            counts = like.sample(gen, weights)
            sb_stats[n][i] = (int(np.count_nonzero(counts)), int(counts.sum()))

    ms = MarginalSampler(prior, MarginalConfig(x_max=50))
    gen = RngState(seed, 1).generator()
    mg_stats = [[None] * reps for _ in range(3)]
    for i in range(reps):
        for n, obs in enumerate(ms.sample(3, gen)):
            mg_stats[n][i] = (len(obs.atoms), obs.total_count())
    return sb_stats, mg_stats


def test_criterion_6_marginal_matches_size_biased(capsys):
    """The sequential sampler and the size-biased measure plus likelihood
    emissions give the same joint (atoms, count sum) law per data point,
    N=3, 1e5 replicates, two-sample chi-square p > 0.01 each step.

    The measure is truncated at 2000 rounds; the visible-atom rate the cut
    discards is of order 1/2000 and shifts the test statistic by well under
    one unit at this replicate count.
    """
    t0 = time.perf_counter()
    failures = []
    pvals = []
    runs = [
        ("poisson/gamma", POISSON_GAMMA, SEED_EQUIV_GAMMA),
        ("bernoulli/beta", BERNOULLI_BETA, SEED_EQUIV_BETA),
    ]
    for label, entry, seed in runs:
        prior = auto_conjugate(entry.make_likelihood(), 1.0, (-1.0,), 1.0)
        sb_stats, mg_stats = _joint_paths(prior, seed, GOF_REPS, m_max=2000)
        for n in range(3):
            rep = chi_square_two_sample(
                sb_stats[n], mg_stats[n], name=f"{label}, data point {n + 1}"
            )
            pvals.append(rep.statistic)
            if not rep.passed:
                failures.append(str(rep))
    label = f"marginal and size-biased paths agree (min p = {min(pvals):.3f})"
    _verdict(capsys, 6, label, failures, t0, 300.0)


def test_criterion_7_batch_equals_iterated(capsys):
    """One batch update equals observation-at-a-time updates, 200 random
    models over all four families, up to 10 observations, rel 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11007)
    failures = []
    families = ("poisson", "bernoulli", "odds_bernoulli", "negative_binomial")
    for k in range(200):
        entry, mass, xi0, lam = _random_valid(rng, families[k % 4])
        like = entry.make_likelihood()
        bare = auto_conjugate(like, mass, (xi0,), lam)
        atoms = []
        for loc in (0.15, 0.45)[: int(rng.integers(0, 3))]:
            x = 1 if like.support_bound == 1 else int(rng.integers(1, 4))
            m = x + int(rng.integers(0, 3))  # m >= x keeps the law proper
            atoms.append(FixedAtomParams(Location(loc), *weight_dist_params(bare, m, x)))
        prior = auto_conjugate(like, mass, (xi0,), lam, fixed_atoms=tuple(atoms))

        pool = [0.15, 0.45, 0.6, 0.85]
        obs = []
        for _ in range(int(rng.integers(1, 11))):
            touched = [
                (1 if like.support_bound == 1 else int(rng.integers(1, 5)), loc)
                for loc in pool
                if rng.uniform() < 0.5
            ]
            obs.append(ObservationMeasure([c for c, _ in touched], [v for _, v in touched]))
        if not iterated_equals_batch(prior, obs):
            failures.append(
                f"model {k} ({entry.family}, {len(obs)} observations) split the paths"
            )
    _verdict(capsys, 7, "batch equals iterated posterior", failures, t0, 10.0)


def test_criterion_8_validity_regions(capsys):
    """The validators reproduce the published hyperparameter regions on
    in/out grids: beta process (native), gamma process, beta prime."""
    t0 = time.perf_counter()
    failures = []

    def disagree(tag, got, want):
        if got != want:
            failures.append(f"{tag}: validator said {got}, region says {want}")

    # beta process, native coordinates: mass > 0, 0 <= alpha < 1, theta > -alpha
    for mass in (-1.0, 0.0, 0.5, 2.0):
        for alpha in (-0.3, 0.0, 0.25, 0.7, 0.99, 1.0, 1.4):
            for theta in (-1.2, -0.7, -0.25, 0.0, 0.3, 1.0):
                want = mass > 0.0 and 0.0 <= alpha < 1.0 and theta > -alpha
                got = BERNOULLI_BETA.native_valid(mass, alpha, theta).ok
                disagree(f"beta process ({mass:g}, {alpha:g}, {theta:g})", got, want)

    # gamma process: mass > 0, -2 < xi <= -1, lam > 0
    for mass in (-0.5, 1.5):
        for xi0 in (-2.5, -2.0, -1.95, -1.5, -1.0, -0.95, 0.4):
            for lam in (-0.5, 0.0, 0.4, 2.0):
                want = mass > 0.0 and -2.0 < xi0 <= -1.0 and lam > 0.0
                got = POISSON_GAMMA.hyperparam_valid(mass, (xi0,), lam).ok
                disagree(f"gamma process ({mass:g}, {xi0:g}, {lam:g})", got, want)

    # beta prime: mass > 0, -2 < xi <= -1, lam > xi + 1
    for mass in (-0.5, 1.5):
        for xi0 in (-2.5, -2.0, -1.95, -1.5, -1.0, -0.95, 0.4):
            for gap in (-0.4, 0.0, 0.3, 2.0):
                lam = xi0 + 1.0 + gap
                want = mass > 0.0 and -2.0 < xi0 <= -1.0 and gap > 0.0
                got = ODDS_BERNOULLI_BETA_PRIME.hyperparam_valid(mass, (xi0,), lam).ok
                disagree(f"beta prime ({mass:g}, {xi0:g}, {lam:g})", got, want)

    _verdict(capsys, 8, "validity regions", failures, t0, 30.0)
