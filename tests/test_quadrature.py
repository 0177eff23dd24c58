"""Composite Gauss-Legendre integrator tests against analytic integrals."""

import math
import subprocess
import sys

import numpy as np
import pytest

from twospinboson import quadrature
from twospinboson.quadrature import (
    QuadratureError,
    composite_gauss,
    integrate_decaying,
    panel_width,
)

_BAD_UPPER = "^upper must be positive and finite, got {}$"


class TestCompositeGauss:
    def test_polynomial_exact(self):
        # Degree-7 polynomials are exact for 8-point panels.
        value = composite_gauss(lambda x: 8.0 * x ** 7, 2.0, n_panels=1)
        np.testing.assert_allclose(value, 2.0 ** 8, rtol=1e-14)

    def test_constant(self):
        value = composite_gauss(lambda x: np.ones_like(x), 5.0, n_panels=4)
        np.testing.assert_allclose(value, 5.0, rtol=1e-14)

    def test_panel_refinement_converges(self):
        f = lambda x: np.exp(-x) * np.cos(7.0 * x)
        exact = 1.0 / (1.0 + 49.0) * (1.0 - math.exp(-10.0) * (
            math.cos(70.0) - 7.0 * math.sin(70.0)))
        coarse = composite_gauss(f, 10.0, n_panels=20)
        fine = composite_gauss(f, 10.0, n_panels=200)
        assert abs(fine - exact) < abs(coarse - exact) + 1e-15
        np.testing.assert_allclose(fine, exact, atol=1e-12)

    def test_large_panel_count_chunked(self):
        # Node counts past the chunk size still sum correctly.
        value = composite_gauss(lambda x: x, 1.0, n_panels=(1 << 17) + 3)
        np.testing.assert_allclose(value, 0.5, rtol=1e-12)

    def test_rejects_bad_arguments(self):
        for upper in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=_BAD_UPPER.format(upper)):
                composite_gauss(np.exp, upper, 1)
        with pytest.raises(ValueError, match="^n_panels must be at least 1, got 0$"):
            composite_gauss(np.exp, 1.0, 0)
        with pytest.raises(ValueError, match=r"^n_panels must be an integer, got 2\.5$"):
            composite_gauss(np.exp, 1.0, 2.5)
        assert composite_gauss(np.exp, 1.0, np.int64(2)) == composite_gauss(np.exp, 1.0, 2)


class TestIntegrateDecaying:
    def test_exponential(self):
        value, err = integrate_decaying(lambda x: np.exp(-x), 40.0)
        np.testing.assert_allclose(value, 1.0, atol=1e-10)
        assert err <= 1e-10

    def test_oscillatory_decaying(self):
        # integral_0^inf e^{-x} cos(b x) dx = 1 / (1 + b^2); the tail beyond
        # x = 40 is below 1e-17.
        b = 25.0
        value, err = integrate_decaying(lambda x: np.exp(-x) * np.cos(b * x),
                                        40.0, osc_rate=b)
        np.testing.assert_allclose(value, 1.0 / (1.0 + b * b), atol=1e-10)
        assert err <= 1e-10

    def test_peaked_integrand(self):
        value, _ = integrate_decaying(lambda x: x * np.exp(-x), 40.0)
        np.testing.assert_allclose(value, 1.0, atol=1e-10)

    def test_failure_raises_with_diagnostics(self, monkeypatch):
        # A non-integrable spike cannot hit the tolerance; the error object
        # reports the achieved estimate and panel count.
        monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 3)
        spike = lambda x: 1.0 / np.sqrt(np.abs(x - math.sqrt(2.0)) + 1e-300)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_decaying(spike, 40.0, abs_tol=1e-13)
        assert excinfo.value.achieved > excinfo.value.abs_tol
        assert excinfo.value.n_panels > 0

    def test_rejects_bad_arguments(self):
        for upper in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=_BAD_UPPER.format(upper)):
                integrate_decaying(lambda x: np.exp(-x), upper)
        with pytest.raises(ValueError, match="abs_tol"):
            integrate_decaying(lambda x: np.exp(-x), 40.0, abs_tol=0.0)


class TestPanelWidth:
    def test_slow_integrand_uses_cap(self):
        assert panel_width(0.0) == 0.05
        assert panel_width(1.0) == 0.05

    def test_fast_oscillation_shrinks_width(self):
        w = panel_width(1000.0)
        assert w <= math.pi / 10000.0 + 1e-15
        assert w > 0.0

    def test_monotone_in_rate(self):
        rates = [0.0, 10.0, 100.0, 1000.0, 10000.0]
        widths = [panel_width(r) for r in rates]
        assert all(w1 >= w2 for w1, w2 in zip(widths, widths[1:]))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="^osc_rate must be nonnegative, got -1.0$"):
            panel_width(-1.0)


class TestOracleModule:
    def test_package_import_leaves_the_oracle_unloaded(self):
        # No evaluation path integrates: importing the package and its sweeps
        # loads no quadrature, and the oracle's names stay out of the package.
        script = (
            "import sys, twospinboson, twospinboson.sweeps\n"
            "names = ('X_MAX', 'thermal_kernel', 'discretize_modes', 'QuadratureError',\n"
            "         'panel_width', 'composite_gauss', 'integrate_decaying',\n"
            "         'spectral_density')\n"
            "print('twospinboson.quadrature' in sys.modules,\n"
            "      [n for n in names if hasattr(twospinboson, n)])\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False []\n"
