"""Monitoring model: linear regression of daily visits on the environment.

Features are (max temperature, effective light hours, sin and cos of the day
angle); the seasonal harmonics absorb the day-of-year trend so the
temperature and light coefficients stay interpretable for control search.
Fitting is plain ordinary least squares by normal equations, with a tiny
ridge retry when the design is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ArityMismatchError,
    DegenerateDesignError,
    InsufficientSamplesError,
    ZeroVarianceError,
)
from .rng import generator
from .weather import DAYS_PER_YEAR, DayWeather, EnvControl, control_effect

FEATURE_NAMES = ("max_temp_c", "light_h", "day_sin", "day_cos")
RIDGE_LAMBDA = 1e-8


@dataclass(frozen=True)
class MonitorSample:
    features: tuple[float, ...]
    target: float


@dataclass(frozen=True)
class LinearModel:
    coefficients: tuple[float, ...]
    intercept: float
    r_squared_train: float


def day_features(dw: DayWeather, ctrl: EnvControl | None, cap: float) -> tuple[float, ...]:
    """Feature vector for one day under an optional control."""
    uplift, extra = control_effect(ctrl, dw.day)
    angle = 2.0 * math.pi * dw.day / DAYS_PER_YEAR
    return (
        dw.max_temp + uplift,
        min(dw.sunshine_hours + extra, cap),
        math.sin(angle),
        math.cos(angle),
    )


def fit(samples: list[MonitorSample]) -> LinearModel:
    """Ordinary least squares by normal equations, ridge fallback on singular."""
    if not samples:
        raise InsufficientSamplesError("no samples")
    k = len(samples[0].features)
    if len(samples) < k + 1:
        raise InsufficientSamplesError(
            f"need at least {k + 1} samples for {k} features, got {len(samples)}"
        )
    X = np.array([[1.0, *s.features] for s in samples])
    y = np.array([s.target for s in samples])
    with np.errstate(over="ignore", invalid="ignore"):
        xtx = X.T @ X
        xty = X.T @ y
        try:
            beta = np.linalg.solve(xtx, xty)
        except np.linalg.LinAlgError:
            try:
                beta = np.linalg.solve(xtx + RIDGE_LAMBDA * np.eye(k + 1), xty)
            except np.linalg.LinAlgError:
                raise DegenerateDesignError("design matrix is singular even with ridge")
    if not np.all(np.isfinite(beta)):
        raise DegenerateDesignError("non-finite solution; degenerate design")
    model = LinearModel(
        coefficients=tuple(float(b) for b in beta[1:]),
        intercept=float(beta[0]),
        r_squared_train=0.0,
    )
    return replace(model, r_squared_train=r_squared(model, samples))


def predict(model: LinearModel, features: tuple[float, ...]) -> float:
    """The feature terms added to zero in coefficient order, then the intercept.

    Features may be floats or arrays that broadcast together; each element
    of an array result has the bits of the prediction from its floats.
    """
    if len(features) != len(model.coefficients):
        raise ArityMismatchError(
            f"model has {len(model.coefficients)} features, got {len(features)}"
        )
    return model.intercept + sum(c * f for c, f in zip(model.coefficients, features))


def r_squared(model: LinearModel, samples: list[MonitorSample]) -> float:
    """1 - SS_res / SS_tot on the given samples."""
    if len(samples) < 2:
        raise ZeroVarianceError("need at least 2 samples")
    y = np.array([s.target for s in samples])
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ZeroVarianceError("targets have zero variance")
    preds = np.array([predict(model, s.features) for s in samples])
    return 1.0 - float(((y - preds) ** 2).sum()) / ss_tot


def split_samples(
    samples: list[MonitorSample], test_fraction: float, seed: int
) -> tuple[list[MonitorSample], list[MonitorSample]]:
    """Deterministic shuffled train/test split."""
    idx = generator(seed, "monitor-split").permutation(len(samples))
    n_test = int(round(test_fraction * len(samples)))
    test = {int(i) for i in idx[:n_test]}
    return (
        [s for i, s in enumerate(samples) if i not in test],
        [s for i, s in enumerate(samples) if i in test],
    )


def save_model(path, model: LinearModel) -> None:
    """Flat text serialization; floats use repr so reload is exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("features: " + ",".join(FEATURE_NAMES[: len(model.coefficients)]) + "\n")
        for name, coef in zip(FEATURE_NAMES, model.coefficients):
            fh.write(f"coef.{name}: {coef!r}\n")
        fh.write(f"intercept: {model.intercept!r}\n")
        fh.write(f"r_squared_train: {model.r_squared_train!r}\n")


def load_model(path) -> LinearModel:
    coefs: list[float] = []
    intercept = 0.0
    r2 = 0.0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key.startswith("coef."):
                coefs.append(float(value))
            elif key == "intercept":
                intercept = float(value)
            elif key == "r_squared_train":
                r2 = float(value)
    return LinearModel(tuple(coefs), intercept, r2)
