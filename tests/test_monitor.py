import math

import numpy as np
import pytest

from beeloop.errors import (
    ArityMismatchError,
    DegenerateDesignError,
    InsufficientSamplesError,
    ZeroVarianceError,
)
from beeloop.monitor import (
    RIDGE_LAMBDA,
    LinearModel,
    MonitorSample,
    day_features,
    fit,
    predict,
    r_squared,
    save_model,
    split_samples,
)
from beeloop.weather import DayWeather, EnvControl


def plane_samples(n=60, noise=0.0, seed=0):
    """Targets on y = 2*t + 3*l + 1 with sin/cos features present but inert."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    samples = []
    for i in range(n):
        t = float(rng.uniform(5, 25))
        light = float(rng.uniform(2, 14))
        s = math.sin(2 * math.pi * (i + 1) / 365)
        c = math.cos(2 * math.pi * (i + 1) / 365)
        y = 2.0 * t + 3.0 * light + 1.0 + noise * float(rng.normal())
        samples.append(MonitorSample((t, light, s, c), y))
    return samples


def test_noiseless_plane_recovery():
    model = fit(plane_samples())
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
    assert model.coefficients[1] == pytest.approx(3.0, abs=1e-9)
    assert model.coefficients[2] == pytest.approx(0.0, abs=1e-9)
    assert model.coefficients[3] == pytest.approx(0.0, abs=1e-9)
    assert model.intercept == pytest.approx(1.0, abs=1e-9)
    assert model.r_squared_train == pytest.approx(1.0, abs=1e-9)


def test_noisy_recovery_within_three_standard_errors():
    sigma = 4.0
    samples = plane_samples(n=200, noise=sigma, seed=7)
    model = fit(samples)

    # oracle: separate solve via lstsq, classic OLS standard errors
    X = np.array([[1.0, *s.features] for s in samples])
    y = np.array([s.target for s in samples])
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    dof = len(samples) - X.shape[1]
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))

    got = np.array([model.intercept, *model.coefficients])
    assert np.allclose(got, beta, atol=1e-6)
    truth = np.array([1.0, 2.0, 3.0, 0.0, 0.0])
    assert np.all(np.abs(got - truth) <= 3.0 * se)


def test_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        fit(plane_samples(n=4))
    with pytest.raises(InsufficientSamplesError):
        fit([])


def test_degenerate_design_detected():
    huge = [MonitorSample((1e308, 1e308, 1e308, 1e308), 1.0) for _ in range(8)]
    with pytest.raises(DegenerateDesignError):
        fit(huge)


def test_predict_zero_model_returns_intercept():
    model = LinearModel((0.0, 0.0, 0.0, 0.0), 5.5, 0.0)
    assert predict(model, (99.0, -3.0, 0.4, 0.1)) == 5.5


def test_predict_known_arithmetic():
    model = LinearModel((2.0, 3.0, 0.0, 0.0), 1.0, 0.0)
    assert predict(model, (10.0, 2.0, 0.7, -0.7)) == 27.0


def test_predict_arity_mismatch():
    model = LinearModel((1.0, 2.0), 0.0, 0.0)
    with pytest.raises(ArityMismatchError):
        predict(model, (1.0, 2.0, 3.0))


def test_r_squared_perfect_and_mean_only():
    samples = plane_samples(n=30)
    model = fit(samples)
    assert r_squared(model, samples) == pytest.approx(1.0, abs=1e-9)
    mean_y = float(np.mean([s.target for s in samples]))
    mean_only = LinearModel((0.0, 0.0, 0.0, 0.0), mean_y, 0.0)
    assert r_squared(mean_only, samples) == pytest.approx(0.0, abs=1e-12)


def test_r_squared_zero_variance():
    flat = [MonitorSample((float(i), 1.0, 0.0, 1.0), 7.0) for i in range(10)]
    model = LinearModel((0.0, 0.0, 0.0, 0.0), 7.0, 0.0)
    with pytest.raises(ZeroVarianceError):
        r_squared(model, flat)


def test_residuals_orthogonal_to_features():
    samples = plane_samples(n=120, noise=3.0, seed=11)
    model = fit(samples)
    X = np.array([[1.0, *s.features] for s in samples])
    y = np.array([s.target for s in samples])
    resid = y - X @ np.array([model.intercept, *model.coefficients])
    for j in range(X.shape[1]):
        col = X[:, j]
        rel = abs(float(resid @ col)) / (np.linalg.norm(resid) * np.linalg.norm(col))
        assert rel < 1e-6


def test_scale_equivariance():
    samples = plane_samples(n=80, noise=2.0, seed=13)
    model = fit(samples)
    c = 10.0
    scaled = [
        MonitorSample((s.features[0] * c, *s.features[1:]), s.target) for s in samples
    ]
    scaled_model = fit(scaled)
    assert scaled_model.coefficients[0] == pytest.approx(
        model.coefficients[0] / c, rel=1e-9
    )
    assert scaled_model.intercept == pytest.approx(model.intercept, rel=1e-9)
    for s, ss in zip(samples, scaled):
        assert predict(scaled_model, ss.features) == pytest.approx(
            predict(model, s.features), rel=1e-9
        )


def test_saved_model_floats_read_back_exactly(tmp_path):
    model = fit(plane_samples(n=50, noise=2.5, seed=19))
    path = tmp_path / "model.txt"
    save_model(path, model)
    values = [line.partition(": ")[2] for line in path.read_text().splitlines()[1:]]
    assert [float(v) for v in values] == [
        *model.coefficients, model.intercept, model.r_squared_train
    ]


def test_split_is_deterministic_and_disjoint():
    samples = plane_samples(n=50)
    a_train, a_test = split_samples(samples, 0.2, seed=5)
    b_train, b_test = split_samples(samples, 0.2, seed=5)
    assert a_train == b_train and a_test == b_test
    assert len(a_test) == 10
    assert len(a_train) + len(a_test) == len(samples)


def test_day_features_apply_control_inside_window():
    dw = DayWeather(day=100, max_temp=12.0, sunshine_hours=7.0)
    ctrl = EnvControl(3.0, 4.0, (91, 243))
    t, light, s, c = day_features(dw, ctrl, cap=16.0)
    assert t == 15.0 and light == 11.0
    t2, light2, _, _ = day_features(dw, None, cap=9.0)
    assert t2 == 12.0 and light2 == 7.0
    assert s == pytest.approx(math.sin(2 * math.pi * 100 / 365))
    assert c == pytest.approx(math.cos(2 * math.pi * 100 / 365))


def test_singular_design_takes_ridge_retry(monkeypatch):
    """Light equal to temperature and one day's harmonics throughout make
    ``X^T X`` exactly singular; the ridge retry still fits exact linear targets."""
    solved = []
    solve = np.linalg.solve

    def spy(a, b):
        solved.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    angle = 2 * math.pi * 100 / 365
    samples = [
        MonitorSample((t, t, math.sin(angle), math.cos(angle)), 2.0 * t + 1.0)
        for t in map(float, range(10, 30))
    ]
    model = fit(samples)
    assert len(solved) == 2
    assert np.array_equal(solved[1], solved[0] + RIDGE_LAMBDA * np.eye(5))
    assert all(map(math.isfinite, (*model.coefficients, model.intercept)))
    for s in samples:
        assert predict(model, s.features) == pytest.approx(s.target, rel=1e-6)
