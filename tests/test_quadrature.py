"""Integrator validation against closed forms and deliberate mislabels."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betaln, gammaln, roots_legendre

from expcrm.errors import DivergenceSuspected, QuadratureError, SingularityMismatch
from expcrm.quadrature import IntegrandSpec, PanelLaw, _gl_rule, integrate

REL_TOL = 1e-10
# Validation accuracy demanded of every convergent corpus integral.
CORPUS_RTOL = 1e-8

BETA_PARAMS = [(0.5, 0.5), (0.1, 0.1), (0.1, 2.5), (2.5, 0.1), (1.0, 1.0), (2.5, 7.0), (7.0, 0.3)]
GAMMA_PARAMS = [(0.1, 0.5), (0.5, 1.0), (1.0, 4.0), (3.7, 0.5), (2.0, 1.0)]
BETA_PRIME_PARAMS = [(0.5, 0.5), (2.0, 1.5), (0.2, 3.0), (1.3, 0.07), (0.7, 1.0)]


def beta_spec(a: float, b: float) -> IntegrandSpec:
    def log_f(t):
        return (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)

    def log_f_upper(v):
        return (a - 1.0) * np.log1p(-v) + (b - 1.0) * np.log(v)

    return IntegrandSpec(
        log_f, upper=1.0, lower_order=a - 1.0, upper_order=b - 1.0,
        log_f_upper=log_f_upper, name=f"beta({a},{b})",
    )


def gamma_spec(a: float, c: float) -> IntegrandSpec:
    return IntegrandSpec(
        lambda t: (a - 1.0) * np.log(t) - c * t,
        upper=math.inf, lower_order=a - 1.0, upper_order=None, name=f"gamma({a},{c})",
    )


def beta_prime_spec(a: float, b: float) -> IntegrandSpec:
    return IntegrandSpec(
        lambda t: (a - 1.0) * np.log(t) - (a + b) * np.log1p(t),
        upper=math.inf, lower_order=a - 1.0, upper_order=-(b + 1.0),
        name=f"betaprime({a},{b})",
    )


@pytest.mark.parametrize("a,b", BETA_PARAMS)
def test_beta_integrals(a, b):
    """Panels graded toward both endpoints, with analytic end pieces, give the beta function."""
    value, err = integrate(beta_spec(a, b), rel_tol=REL_TOL)
    truth = math.exp(betaln(a, b))
    np.testing.assert_allclose(value, truth, rtol=CORPUS_RTOL)
    assert err <= 1e-6 * abs(value)


@pytest.mark.parametrize("a,c", GAMMA_PARAMS)
def test_gamma_integrals(a, c):
    """Exponential tails close the quarter-octave march without a declared order."""
    value, _ = integrate(gamma_spec(a, c), rel_tol=REL_TOL)
    truth = math.exp(gammaln(a) - a * math.log(c))
    np.testing.assert_allclose(value, truth, rtol=CORPUS_RTOL)


@pytest.mark.parametrize("a,b", BETA_PRIME_PARAMS)
def test_beta_prime_integrals(a, b):
    """Declared power tails close with an analytic piece, even fractions above -1."""
    value, _ = integrate(beta_prime_spec(a, b), rel_tol=REL_TOL)
    truth = math.exp(betaln(a, b))
    np.testing.assert_allclose(value, truth, rtol=CORPUS_RTOL)


def test_arcsine_is_pi():
    value, _ = integrate(beta_spec(0.5, 0.5), rel_tol=1e-12)
    np.testing.assert_allclose(value, math.pi, rtol=1e-10)


def test_exponential_half():
    value, _ = integrate(gamma_spec(1.0, 2.0), rel_tol=1e-12)
    np.testing.assert_allclose(value, 0.5, rtol=1e-10)


@pytest.mark.parametrize("n", [6, 12, 24])
def test_tabulated_gauss_legendre_rules_are_scipys(n):
    """The engine's tabulated rules are the bytes roots_legendre computes."""
    (y, w), (want_y, want_w) = _gl_rule(n), roots_legendre(n)
    assert y.tobytes() == want_y.tobytes() and w.tobytes() == want_w.tobytes()


def test_first_quadrature_loads_no_scipy_linalg():
    """roots_legendre imports scipy.linalg; the tabulated rules spare a fresh interpreter that."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import math, sys\n"
        "from expcrm.quadrature import IntegrandSpec, integrate\n"
        "value, _ = integrate(IntegrandSpec(lambda t: -t, upper=math.inf, lower_order=0.0))\n"
        "print(round(value, 12), 'scipy.linalg' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1.0", "False"]


class TestDivergence:
    def test_power_divergence_at_zero(self):
        spec = IntegrandSpec(
            lambda t: -1.5 * np.log(t) - t, upper=math.inf, lower_order=-1.5
        )
        with pytest.raises(DivergenceSuspected) as exc:
            integrate(spec)
        assert exc.value.endpoint == "the lower endpoint"
        assert len(exc.value.evidence) >= 5

    def test_log_divergence_at_zero(self):
        """The marginal 1/t case: shells hold level instead of growing."""
        spec = IntegrandSpec(
            lambda t: -np.log(t) - t, upper=math.inf, lower_order=-1.0
        )
        with pytest.raises(DivergenceSuspected):
            integrate(spec)

    def test_divergence_on_unit_interval(self):
        spec = IntegrandSpec(
            lambda t: -1.5 * np.log(t), upper=1.0, lower_order=-1.5
        )
        with pytest.raises(DivergenceSuspected):
            integrate(spec)

    def test_divergence_at_finite_upper(self):
        spec = IntegrandSpec(
            lambda t: -0.5 * np.log(t) - 1.2 * np.log1p(-t),
            upper=1.0, lower_order=-0.5, upper_order=-1.2,
            log_f_upper=lambda v: -0.5 * np.log1p(-v) - 1.2 * np.log(v),
        )
        with pytest.raises(DivergenceSuspected) as exc:
            integrate(spec)
        assert exc.value.endpoint == "the upper endpoint"

    def test_divergence_at_infinity(self):
        spec = IntegrandSpec(
            lambda t: -0.99 * np.log(t), upper=math.inf,
            lower_order=-0.99, upper_order=-0.99,
        )
        with pytest.raises(DivergenceSuspected) as exc:
            integrate(spec)
        assert exc.value.endpoint == "infinity"


MISLABELS = [
    # (log_f, upper, declared lower, declared upper, label)
    (lambda t: -0.8 * np.log(t) - t, math.inf, -0.5, None, "lower -0.8 declared -0.5"),
    (lambda t: -0.8 * np.log(t) - t, math.inf, -1.1, None, "lower -0.8 declared -1.1"),
    (lambda t: -1.5 * np.log(t) - t, math.inf, -1.0, None, "lower -1.5 declared -1.0"),
    (lambda t: -1.5 * np.log(t) - t, math.inf, -1.9, None, "lower -1.5 declared -1.9"),
    (lambda t: 0.5 * np.log(t) - t, math.inf, 1.0, None, "lower 0.5 declared 1.0"),
    (lambda t: -0.5 * np.log(t) - t, math.inf, -1.0, None, "declared divergent, is not"),
    (lambda t: -1.0 / t - t, math.inf, 0.0, None, "essential zero at origin"),
    (lambda t: -0.7 * np.log1p(-t), 1.0, 0.0, -0.2, "upper -0.7 declared -0.2"),
    (lambda t: 2.0 * np.log(t) - t, math.inf, 2.0, -3.0, "exponential tail declared power"),
    (lambda t: -2.0 * np.log1p(t), math.inf, 0.0, -1.5, "tail -2 declared -1.5"),
]


@pytest.mark.parametrize("log_f,upper,low,up,label", MISLABELS, ids=[m[-1] for m in MISLABELS])
def test_mislabeled_singularities_are_rejected(log_f, upper, low, up, label):
    """A wrong declared endpoint power must raise, never return a number."""
    spec = IntegrandSpec(log_f, upper=upper, lower_order=low, upper_order=up)
    with pytest.raises(SingularityMismatch):
        integrate(spec)


def test_error_estimate_is_honest():
    """Reported error bounds the actual error on the corpus."""
    for a, b in BETA_PARAMS:
        value, err = integrate(beta_spec(a, b), rel_tol=REL_TOL)
        truth = math.exp(betaln(a, b))
        assert abs(value - truth) <= max(err * 50.0, 1e-13 * truth)


def test_near_boundary_exponents():
    """Orders just above -1 on both sides stay accurate."""
    value, _ = integrate(beta_spec(0.02, 0.03), rel_tol=REL_TOL)
    np.testing.assert_allclose(value, math.exp(betaln(0.02, 0.03)), rtol=CORPUS_RTOL)
    value, _ = integrate(beta_prime_spec(0.05, 0.05), rel_tol=REL_TOL)
    np.testing.assert_allclose(value, math.exp(betaln(0.05, 0.05)), rtol=CORPUS_RTOL)


def test_undeclared_powers_are_probed():
    """lower_order None: the slope rule measures both powers, divergent ones still raise."""
    value, _ = integrate(IntegrandSpec(lambda t: 1.5 * np.log(t) - t, math.inf, None))
    np.testing.assert_allclose(value, math.exp(gammaln(2.5)), rtol=CORPUS_RTOL)
    value, _ = integrate(IntegrandSpec(beta_spec(0.5, 2.5).log_f, 1.0, None))
    np.testing.assert_allclose(value, math.exp(betaln(0.5, 2.5)), rtol=CORPUS_RTOL)
    with pytest.raises(DivergenceSuspected):
        integrate(IntegrandSpec(lambda t: -1.5 * np.log(t) - t, math.inf, None))
    with pytest.raises(QuadratureError):
        IntegrandSpec(lambda t: -t, math.inf, None, upper_order=-2.0)


# Every panel evaluates the nodes of the 12-node rule and its 6-node
# companion; an infinite domain starts with 95 graded panels below 1 and the
# first march of 8 quarter-octave panels, up to 2^2
PANEL_NODES = 18
GRID_PANELS = 95
FIRST_MARCH = 8


@pytest.mark.parametrize(
    "xi, lam, batches",
    [
        (0.5, 11.0, []),  # mass below 2^2: the first march closes it
        (0.5, 1.1, [8, 16]),  # closes near 2^5.25, in the batch to 2^8
        (1000.0, 1e-3, [8, 16, 32, 64]),  # mass near 2^20, closed in the batch to 2^32
    ],
)
def test_march_evaluates_only_the_batches_it_needs(xi, lam, batches):
    """The march toward infinity doubles what it has marched, and stops at the batch that closes.

    The evaluator sees the start grid with the first march, the lower power
    piece's two knots, one call per later batch, and then the bisections,
    two new panels each; nothing above the last batch's top knot.
    """
    sizes, tops = [], []

    def log_f(t):
        sizes.append(t.size)
        tops.append(t.max())
        return xi * np.log(t) - lam * t

    law = PanelLaw(IntegrandSpec(log_f, math.inf, xi, None, name="gamma kernel"), REL_TOL)
    marched = FIRST_MARCH + sum(batches)
    assert sizes[:2] == [PANEL_NODES * (GRID_PANELS + FIRST_MARCH), 2]
    assert sizes[2 : 2 + len(batches)] == [PANEL_NODES * b for b in batches]
    assert max(tops) < 2.0 ** (marched / 4)
    knots = law._sides[0].knots
    kept = round(4 * math.log2(knots[-1]))  # the march closed at its kept-th knot, 2^(kept/4)
    assert 0 < kept <= marched
    bisections = sizes[2 + len(batches) :]
    assert all(n % (2 * PANEL_NODES) == 0 for n in bisections)
    assert sum(bisections) // (2 * PANEL_NODES) == knots.size - 1 - GRID_PANELS - kept
    log_total = math.log(law.total) + law.shift
    assert log_total == pytest.approx(gammaln(xi + 1.0) - (xi + 1.0) * math.log(lam), rel=0.0, abs=1e-12)


def test_march_stops_at_its_last_knot():
    """A tail that never closes marches in doubling batches to 2^300, the 1,200th knot, then raises."""
    sizes = []

    def log_f(t):
        sizes.append(t.size)
        return -1.01 * np.log1p(t)  # declared faster than a power, which it is not

    with pytest.raises(QuadratureError, match="tail failed to close after 1200 quarter-octaves"):
        PanelLaw(IntegrandSpec(log_f, math.inf, 0.0, None, name="slow tail"), REL_TOL)
    batches = [8, 16, 32, 64, 128, 256, 512, 1200 - 1024]
    assert sizes[2:] == [PANEL_NODES * b for b in batches]


def test_power_tail_marches_sixty_panels_at_a_time():
    """A declared power tail closes only where its log-slope has settled, here past 2^33, in batches of 60.

    The evaluator sees the start grid with the first 60 march panels, the
    lower power piece's two knots, the 61 knots the tail test reads, each
    later batch's nodes and its 60 knots, and the upper power piece's two.
    """
    a, b = 0.5, 0.1
    sizes = []

    def log_f(t):
        sizes.append(t.size)
        return (a - 1.0) * np.log(t) - (a + b) * np.log1p(t)

    law = PanelLaw(IntegrandSpec(log_f, math.inf, a - 1.0, -1.0 - b, name="beta prime kernel"), REL_TOL)
    assert sizes == [PANEL_NODES * (GRID_PANELS + 60), 2, 61] + [PANEL_NODES * 60, 60] * 2 + [2]
    assert law._sides[0].knots[-1] == 2.0 ** (135 / 4)
    assert math.log(law.total) + law.shift == pytest.approx(betaln(a, b), rel=0.0, abs=1e-10)
