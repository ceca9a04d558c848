"""The numpy interpolants and cumulative Simpson against scipy as an oracle.

``Cubic`` with ``spline_slopes`` must be scipy's not-a-knot ``CubicSpline``
up to rounding, its ``jet`` the three derivative calls bit for bit, and
``cumulative_simpson_uniform`` scipy's
``cumulative_simpson`` on equal intervals.  scipy is imported here only; the package does not use it.
On a uniform grid ``spline_slopes`` reads the kept unit-spacing factor, elsewhere it factors per call;
the two paths agree to rounding.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from flatribbon import numerics
from flatribbon.curves import curve_from_samples
from flatribbon.numerics import Cubic, cumulative_simpson_uniform, spline, spline_slopes

# bounds on |Cubic - CubicSpline| relative to max(1, max |f^(nu)| at the nodes)
BOUNDS = {0: 1e-12, 1: 1e-10, 2: 1e-8, 3: 1e-6}
SIZES = (2, 3, 4, 5, 33, 34, 49, 201, 202, 2001, 4001)


def grid(n, perturbed):
    x = np.linspace(0.0, 3.0, n)
    if perturbed and n > 2:
        h = x[1] - x[0]
        x[1:-1] += 0.3 * h * np.random.default_rng(n).uniform(-1.0, 1.0, n - 2)
    return x


def data(x, vector):
    if vector:
        return np.stack([np.cos(x), np.sin(3.0 * x), x**3], axis=-1)
    return np.sin(2.0 * x) + x**2


def probes(x):
    """The nodes, the midpoints and a point half a spacing beyond each end."""
    outside = [x[0] - 0.5 * (x[1] - x[0]), x[-1] + 0.5 * (x[-1] - x[-2])]
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]), outside])


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("perturbed", [False, True], ids=["uniform", "perturbed"])
@pytest.mark.parametrize("n", SIZES)
def test_spline_matches_cubic_spline(n, perturbed, vector):
    x = grid(n, perturbed)
    y = data(x, vector)
    want, got = CubicSpline(x, y), Cubic(x, y, spline_slopes(x, y))
    t = probes(x)
    for nu, bound in BOUNDS.items():
        scale = max(1.0, float(np.max(np.abs(want(x, nu)))))
        g, w = got(t, nu), want(t, nu)
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= bound * scale, nu


def counted_unit_factor(monkeypatch):
    """The node counts of every read of the kept unit-spacing factor from now on."""
    calls, original = [], numerics._unit_factor

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(numerics, "_unit_factor", counted)
    return calls


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("n", [4, 5, 49, 50, 51, 52, 201, 2001, 4001])
def test_kept_unit_factor_is_the_per_call_factorization_to_rounding(n, vector, monkeypatch):
    # 2 .. 4001 unknowns, even and odd counts on both sides of _DENSE_ROWS = 48
    x = grid(n, False)
    y = data(x, vector)
    calls = counted_unit_factor(monkeypatch)
    kept = spline_slopes(x, y)
    assert calls == [n]
    monkeypatch.setattr(numerics, "_UNIFORM", -1.0)  # no grid is uniform: every system is factored per call
    per_call = spline_slopes(x, y)
    assert calls == [n] and kept.shape == per_call.shape == y.shape
    assert np.max(np.abs(kept - per_call)) <= 8 * np.finfo(float).eps * np.max(np.abs(per_call))


@pytest.mark.parametrize("n", [4, 5, 49, 52, 201, 2001])
def test_perturbed_grids_never_read_the_kept_factor(n, monkeypatch):
    calls = counted_unit_factor(monkeypatch)
    x = grid(n, True)
    spline_slopes(x, data(x, False))
    spline_slopes(x, data(x, True))
    assert calls == []


def test_a_grid_far_from_zero_whose_rounding_is_not_small_in_h_is_factored_per_call(monkeypatch):
    # h = 0.3 at 1e15 rounds to spacings of 0.25 and 0.375: uniform to eps * max |x|, not to eps of the span
    calls = counted_unit_factor(monkeypatch)
    x = 1e15 + 0.3 * np.arange(41.0)
    assert np.ptp(np.diff(x)) == 0.125
    spline_slopes(x, np.sin(x - x[0]))
    assert calls == []


def test_a_second_curve_on_as_many_samples_hits_the_kept_factor():
    t = np.linspace(0.0, 2.0 * np.pi, 137)
    numerics._unit_factor.cache_clear()
    for k, scale in enumerate((1.0, 3.0)):
        points = np.stack([np.cos(t), np.sin(t), scale * t], axis=-1)
        curve_from_samples(t, points)
        info = numerics._unit_factor.cache_info()
        assert (info.misses, info.hits) == (1, k)  # the sample spline is the curve's one solve


@pytest.mark.parametrize("n", [4, 52, 201])
def test_kept_factor_is_read_only(n):
    levels, bottom = numerics._unit_factor(n)
    arrays = [bottom] + [a for level in levels for a in level[1:]]
    assert arrays and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_scalar_argument_keeps_the_value_shape(vector):
    x = grid(33, True)
    y = data(x, vector)
    cubic = spline(x, y)
    for nu in range(4):
        assert np.shape(cubic(1.3, nu)) == np.shape(y[0])
        assert np.array_equal(cubic(1.3, nu), cubic(np.array([1.3]), nu)[0])
    with pytest.raises(ValueError):
        cubic(1.3, 4)


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("n", [2, 33, 2001])
def test_jet_is_the_three_derivative_calls_bit_for_bit(n, vector):
    x = grid(n, True)
    cubic = spline(x, data(x, vector))
    for t in (probes(x), 1.3, probes(x).reshape(-1, 1)):
        for nu, value in zip((1, 2, 3), cubic.jet(t)):
            assert np.array_equal(value, cubic(t, nu)), nu  # the shape too


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 4001])
def test_cumulative_simpson_matches_scipy(n):
    values = np.exp(np.sin(np.linspace(0.0, 5.0, n))) - 0.7
    h = 5.0 / (n - 1)
    want = cumulative_simpson(values, dx=h, initial=0.0)
    got = cumulative_simpson_uniform(values, h)
    assert got.shape == want.shape and got[0] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_cumulative_simpson_even_nodes_are_composite_simpson():
    xs = np.linspace(0.0, 2.0, 9)
    values = xs**3 - 2.0 * xs
    table = cumulative_simpson_uniform(values, xs[1] - xs[0])
    exact = xs**4 / 4.0 - xs**2  # Simpson integrates cubics exactly
    assert np.max(np.abs(table[::2] - exact[::2])) <= 1e-14
