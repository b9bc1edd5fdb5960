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
from expcrm.quadrature import IntegrandSpec, _gl_rule, integrate

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
