"""The batched kernel: the cosine product, k-row quadrature, and the lobe certificates.

The cosine product is checked against the integer expansion and against
a 40-digit product; the k-row quadrature and the vector lobe form are
checked against their one-row counterparts.
"""

import math
import os
import sys
import threading

import mpmath
import numpy as np
import pytest

from qunimodal import analytic, quadrature
from qunimodal.analytic import _COSINE_SLICE, cosine_product, i2_ratio_check, lobe_ratio_certificates
from qunimodal.quadrature import integrate_oscillatory

import oracles

EPS = float(np.finfo(float).eps)


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(40):
        yield


def _exact_product(n: int, theta: float):
    """prod_k cos((3k+1) t) cos((3k+2) t) at the exact binary value t of theta."""
    t = mpmath.mpf(theta)
    return mpmath.fprod(mpmath.cos((3 * k + 1) * t) * mpmath.cos((3 * k + 2) * t) for k in range(n + 1))


def _forward_error_bound(n: int, theta: float):
    """The folded product in 40 digits and its first-order forward error bound.

    Each factor cos t + cos((6k+3) t) carries eps (4 + (6k+3) t), each
    product one rounding.
    """
    t = mpmath.mpf(theta)
    c1 = mpmath.cos(t)
    factors = [c1 + mpmath.cos((6 * k + 3) * t) for k in range(n + 1)]
    exact = mpmath.fprod(factors) / 2 ** (n + 1)
    bound = EPS * (
        mpmath.fsum((4 + (6 * k + 3) * theta) * abs(exact / f) for k, f in enumerate(factors))
        + (n + 1) * abs(exact)
    )
    return exact, bound


class TestCosineProduct:
    def test_matches_integer_expansion(self):
        # P(theta) = 2^-(2n+2) sum_m a_m cos((d - 2m) theta) for the row a of
        # prod (1 + q^(3k+1)) (1 + q^(3k+2)), evaluated in 40 digits.
        thetas = np.random.default_rng(20261018).uniform(0.0, math.pi / 2, 12)
        for n in range(13):
            row = oracles.naive_product(oracles.main_factors(n))
            d = len(row) - 1
            got = cosine_product(n, thetas)
            for theta, value in zip(thetas, got):
                t = mpmath.mpf(theta)
                exact = mpmath.fsum(a * mpmath.cos((d - 2 * m) * t) for m, a in enumerate(row))
                assert abs(value - float(exact / 2 ** (2 * n + 2))) <= 64 * EPS, (n, theta)

    def test_matches_high_precision_product_at_168(self):
        n = 168
        split = math.pi / (6 * n + 4)
        rng = np.random.default_rng(168)
        first = rng.uniform(0.0, split, 20)
        got = cosine_product(n, first)
        for theta, value in zip(first, got):
            assert abs(value - float(_exact_product(n, theta))) <= 64 * EPS, theta
        # Beyond the first lobe |P| stays below 4e-62 and its relative error
        # is set by the rounding of the arguments, which add up to
        # (6k+3) theta, up to a few hundred eps near the peak at pi/6 for
        # any product of rounded arguments. Hold it to the first-order
        # forward error bound.
        beyond = np.concatenate([rng.uniform(split, math.pi / 2, 14), rng.uniform(0.5230, 0.5242, 6)])
        got = cosine_product(n, beyond)
        for theta, value in zip(beyond, got):
            exact, bound = _forward_error_bound(n, theta)
            assert abs(value - exact) <= bound, theta

    def test_scalar_angle(self):
        assert cosine_product(3, 0.0) == 1.0
        assert cosine_product(3, 0.3) == pytest.approx(float(_exact_product(3, 0.3)), abs=4 * EPS)


def _pin_cpus(monkeypatch, count: int) -> None:
    """Make the process look as if it may run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _count_thread_starts(monkeypatch) -> list[str]:
    """The names of the threads started from here on, each still started."""
    started: list[str] = []
    plain = threading.Thread.start

    def start(self):
        started.append(self.name)
        plain(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def _no_thread_start(self):
    raise AssertionError(f"a serial call started thread {self.name}")


class TestBlockedCosineProduct:
    """cos((6k+3) t) for k = 16m + j from a table of j < 16, rotated by 6*16*m t."""

    @pytest.mark.parametrize("n", range(16))
    def test_first_block_is_the_plain_fold(self, n):
        thetas = np.random.default_rng(n).uniform(0.0, math.pi / 2, 300)
        c1 = np.cos(thetas)
        want = np.ones_like(thetas)
        for k in range(n + 1):
            want *= np.cos(thetas * (6 * k + 3)) + c1
        assert np.array_equal(cosine_product(n, thetas), np.ldexp(want, -(n + 1)))

    @pytest.mark.parametrize("n", [8, 16, 168, 600])
    def test_value_does_not_depend_on_its_slice(self, n, monkeypatch):
        # From n = 16 on, a call of several slices shares them with a helper
        # thread wherever two CPUs are free: neither the split nor the slice
        # may move a bit.
        rng = np.random.default_rng(7)
        for size in (1, _COSINE_SLICE, 2 * _COSINE_SLICE, 3 * _COSINE_SLICE, 33 * _COSINE_SLICE + 37):
            thetas = rng.uniform(0.0, math.pi / 2, size)
            with monkeypatch.context() as m:
                _pin_cpus(m, 2)
                started = _count_thread_starts(m)
                got = cosine_product(n, thetas)
            shared = n >= analytic._COSINE_BLOCK and size > _COSINE_SLICE
            assert started == (["cosine_product"] if shared else []), size
            assert "cosine_product" not in {t.name for t in threading.enumerate()}
            if size <= 3 * _COSINE_SLICE and n < 512:
                picks = range(size)
            else:  # each slice's ends and every 97th angle: one call each
                picks = sorted({*range(0, size, 97), *range(0, size, _COSINE_SLICE),
                                *range(_COSINE_SLICE - 1, size, _COSINE_SLICE), size - 1})
            assert [got[i] for i in picks] == [float(cosine_product(n, thetas[i])) for i in picks]
            with monkeypatch.context() as m:
                _pin_cpus(m, 1)
                m.setattr(threading.Thread, "start", _no_thread_start)
                assert cosine_product(n, thetas).tobytes() == got.tobytes()

    @pytest.mark.parametrize("failing_slice", [0, 3, 7])
    def test_an_error_in_either_thread_is_raised(self, failing_slice, monkeypatch):
        thetas = np.random.default_rng(8).uniform(0.0, math.pi / 2, 8 * _COSINE_SLICE)
        first = thetas[failing_slice * _COSINE_SLICE]
        plain = analytic._cosine_product_slice

        def failing(n, th):
            if th[0] == first:
                raise FloatingPointError(f"slice {failing_slice}")
            return plain(n, th)

        _pin_cpus(monkeypatch, 2)
        monkeypatch.setattr(analytic, "_cosine_product_slice", failing)
        with pytest.raises(FloatingPointError, match=f"slice {failing_slice}"):
            cosine_product(168, thetas)
        monkeypatch.setattr(analytic, "_cosine_product_slice", plain)
        with monkeypatch.context() as m:
            _pin_cpus(m, 1)
            serial = cosine_product(168, thetas)
        assert cosine_product(168, thetas).tobytes() == serial.tobytes()

    def test_concurrent_callers_take_each_slice_once(self, monkeypatch):
        # Four callers, each with its own helper, under a short switch interval:
        # a slice start handed out twice, or never, would change a value.
        rng = np.random.default_rng(9)
        inputs = [rng.uniform(0.0, math.pi / 2, 9 * _COSINE_SLICE + 5) for _ in range(4)]
        with monkeypatch.context() as m:
            _pin_cpus(m, 1)
            want = [cosine_product(168, th) for th in inputs]
        _pin_cpus(monkeypatch, 2)
        taken: list[int] = []
        plain = analytic._cosine_product_slice

        def counting(n, th):
            taken.append(th.__array_interface__["data"][0])
            return plain(n, th)

        monkeypatch.setattr(analytic, "_cosine_product_slice", counting)
        got = [None] * len(inputs)

        def call(i):
            got[i] = cosine_product(168, inputs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        addresses = [th.__array_interface__["data"][0] + th.itemsize * start
                     for th in inputs for start in range(0, th.size, _COSINE_SLICE)]
        assert sorted(taken) == sorted(addresses)

    def test_block_boundaries_at_168(self):
        # Next to the zero pi/(6k+4) of the factor k = 16m - 1, the last of a
        # block, or k = 16m, the first one rotated by a new block start, that
        # one factor sets the relative error of the product.
        n = 168
        thetas = [
            math.pi / (6 * k + 4) * (1.0 + d)
            for m in range(1, n // 16 + 1)
            for k in (16 * m - 1, 16 * m)
            for d in (-1e-6, 1e-9)
        ]
        for theta, value in zip(thetas, cosine_product(n, np.array(thetas))):
            exact, bound = _forward_error_bound(n, theta)
            assert abs(value - exact) <= bound, theta

    @pytest.mark.parametrize("n", [15, 16, 17, 511, 512])
    def test_block_and_rescale_edges(self, n):
        split = math.pi / (6 * n + 4)
        rng = np.random.default_rng(n)
        thetas = np.concatenate([rng.uniform(0.0, split, 4), rng.uniform(split, math.pi / 2, 4)])
        for theta, value in zip(thetas, cosine_product(n, thetas)):
            exact, bound = _forward_error_bound(n, theta)
            assert abs(value - exact) <= bound, theta


class TestGaussRule:
    """The rule's written-out constants: where they came from, and that they are right."""

    def test_constants_are_the_bits_of_numpys_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert quadrature._NODES.tobytes() == nodes.tobytes()
        assert quadrature._WEIGHTS.tobytes() == weights.tobytes()
        assert quadrature._OFFSETS.tobytes() == ((nodes + 1.0) / 2.0).tobytes()

    def test_constants_match_a_50_digit_rule(self):
        # An oracle apart from numpy: the roots of P_8 and the weights
        # 2 / ((1 - x^2) P_8'(x)^2). The nodes are within 2 ulps; leggauss
        # rounds the outer weights 58 ulps high, still a relative error
        # below the 64 eps of |f| the error estimate adds as its floor.
        with mpmath.workdps(50):
            for node, weight in zip(quadrature._NODES.tolist(), quadrature._WEIGHTS.tolist()):
                root = mpmath.findroot(lambda t: mpmath.legendre(8, t), mpmath.mpf(node))
                slope = 8 * (root * mpmath.legendre(8, root) - mpmath.legendre(7, root)) / (root ** 2 - 1)
                true_weight = 2 / ((1 - root ** 2) * slope ** 2)
                assert abs(node - root) <= 2 * math.ulp(node)
                assert abs(weight - true_weight) < 64 * EPS * weight
        assert math.fsum(quadrature._WEIGHTS.tolist()) == 2.0


class TestRowQuadrature:
    def test_each_row_equals_its_scalar_call(self):
        # Enough panels for several chunks, so the rows are summed across
        # chunk boundaries that differ from the one-row call's.
        rates = (1.0, 7.0, 40.0)
        result = integrate_oscillatory(
            lambda x: np.sin(np.multiply.outer(rates, x)) * np.exp(-x), 0.0, 3.0, frequency=5000.0
        )
        assert result.panels > 4096
        assert result.value.shape == result.abs_error_estimate.shape == (3,)
        for row, rate in enumerate(rates):
            single = integrate_oscillatory(lambda x: np.sin(rate * x) * np.exp(-x), 0.0, 3.0, frequency=5000.0)
            assert isinstance(single.value, float)
            assert single.panels == result.panels
            assert result.value[row] == single.value
            assert result.abs_error_estimate[row] == single.abs_error_estimate
            exact = (rate - math.exp(-3.0) * (math.sin(3.0 * rate) + rate * math.cos(3.0 * rate))) / (1.0 + rate ** 2)
            assert abs(result.value[row] - exact) <= result.abs_error_estimate[row]

    @pytest.mark.parametrize(
        "f, frequency",
        [
            (lambda x: np.sin(3000.0 * x), 3000.0),  # panel sums cancel to 1e-3 of their mass
            (lambda x: np.exp(-690.0 * x) * np.sin(300.0 * x), 300.0),  # panel sums from 1 to 1e-298
        ],
    )
    def test_value_is_the_correctly_rounded_sum_of_its_panel_sums(self, f, frequency):
        # The reference is a plain loop: each panel's weighted node values
        # added in node order, then one fsum over all panels.
        result = integrate_oscillatory(f, 0.0, 1.0, frequency=frequency)
        h = 1.0 / result.panels
        nodes, weights = np.polynomial.legendre.leggauss(8)
        panel_sums = []
        for panel in range(result.panels):
            values = f(panel * h + (nodes + 1.0) / 2.0 * h).tolist()
            total = values[0] * weights[0]
            for value, weight in zip(values[1:], weights[1:]):
                total += value * weight
            panel_sums.append(total)
        assert result.value == math.fsum(panel_sums) * (h / 2.0)


class TestInPlaceKernel:
    """The kernel is built in its outer-product buffer, the panel sums beside it."""

    @pytest.mark.parametrize("n", [8, 168])
    @pytest.mark.parametrize("mu", [301, 7.5, [1, 301, 711], np.array([0, 40])])
    def test_integrand_has_the_bits_of_the_plain_formula(self, n, mu):
        thetas = np.random.default_rng(n).uniform(0.0, math.pi / 2, 3 * _COSINE_SLICE + 5)
        for theta in (thetas, thetas[17], float(thetas[17])):
            th = np.asarray(theta, dtype=float)
            want = np.sin(np.multiply.outer(mu, th)) * (th * cosine_product(n, th))
            got = analytic.integrand(n, mu, theta)
            if np.ndim(want) == 0:
                assert isinstance(got, float)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("mu", [301, [1, 301, 711]])
    def test_quadrature_leaves_the_integrand_values_as_returned(self, mu):
        returned = []

        def kernel(th):
            vals = analytic.integrand(168, mu, th)
            returned.append((vals, vals.copy()))
            return vals

        result = integrate_oscillatory(kernel, 0.0, 0.5, frequency=1016.0 + 711.0)
        assert result.panels > 64 and len(returned) > 2
        assert any((vals < 0).any() for vals, _ in returned)
        for vals, before in returned:
            assert vals.tobytes() == before.tobytes()


class TestLobeCertificates:
    def test_vector_form_matches_single_offsets(self):
        n = 24
        window = 6 * n + 3
        mus = [0, 5, 61, window, window + 20, 5]
        certificates = lobe_ratio_certificates(n, mus)
        assert [c.detail["mu"] for c in certificates] == mus
        for mu, cert in zip(mus, certificates):
            single = i2_ratio_check(n, mu)
            assert cert.passed == single.passed
            assert cert.grid_points == single.grid_points
            assert cert.detail.get("flags") == single.detail.get("flags")
            for key in ("i1_panels", "i2_panels"):
                assert cert.detail.get(key) == single.detail.get(key)
            for a, b in (
                (cert.min_margin, single.min_margin),
                (cert.error_budget, single.error_budget),
                (cert.detail.get("i1", 0.0), single.detail.get("i1", 0.0)),
                (cert.detail.get("i2", 0.0), single.detail.get("i2", 0.0)),
            ):
                assert abs(a - b) <= 1e-15 * abs(b)
        vacuous, probe = certificates[0], certificates[4]
        assert vacuous.detail["vacuous"] and vacuous.grid_points == 0
        assert "non_coefficient_probe" in probe.detail["flags"]
        # the probe beyond the window gets a finer grid of its own
        assert probe.detail["i2_panels"] > certificates[1].detail["i2_panels"]

    def test_lobes_sum_to_exact_integral(self):
        n = 10
        row = oracles.naive_product(oracles.main_factors(n))
        mus = [mu for mu in range(1, 6 * n + 4) if (len(row) - 1 - mu) % 2 == 0]
        for mu, cert in zip(mus, lobe_ratio_certificates(n, mus)):
            exact = math.pi * float(oracles.theta_kernel_over_pi(row, mu))
            assert abs(cert.detail["i1"] + cert.detail["i2"] - exact) <= 2 * cert.error_budget + 8 * EPS * abs(exact)

    def test_domain(self):
        assert lobe_ratio_certificates(5, []) == []
        with pytest.raises(ValueError):
            lobe_ratio_certificates(0, [1])
        with pytest.raises(ValueError):
            lobe_ratio_certificates(5, [3, -1])
