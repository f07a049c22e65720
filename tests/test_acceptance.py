"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the status lines.
"""

import contextlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import beeloop
from beeloop.cli import default_config_path
from beeloop.control import ThresholdClassifier, classify, synthetic_region_sample, train_softmax
from beeloop.foraging import ColonyParams, simulate_day
from beeloop.metrics import compare, display_pii, pii
from beeloop.monitor import MonitorSample, day_features, fit, r_squared, split_samples
from beeloop.scouting import ScoutParams, run_scouting
from beeloop.supervisor import UserConfig, run_fi_loop
from beeloop.weather import DayWeather, foraging_hours, synth_weather


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def fi_runs(desk_grid):
    """Ten full feedback-loop runs on the desk landscape, default config."""
    weather = synth_weather(42)
    t0 = time.monotonic()
    runs = [
        run_fi_loop(
            desk_grid, weather, ColonyParams(), ScoutParams(),
            ThresholdClassifier(), UserConfig(), seed=seed,
        )
        for seed in range(1, 11)
    ]
    return runs, time.monotonic() - t0


def test_criterion_1_pii_formula_exact():
    with criterion(1, "PII formula exactness"):
        value = pii(61.71, 38.0, 0.5, 0.5)
        assert value == 0.5 * 61.71 + 0.5 * 38.0  # zero tolerance on the formula
        assert abs(value - 49.855) < 1e-14
        assert display_pii(value) == "49.85"


def test_criterion_2_baseline_calibration(desk_grid, desk_patches):
    with criterion(2, "baseline calibration"):
        t0 = time.monotonic()
        covs, dets = [], []
        for seed in range(1, 11):
            rep = run_scouting(desk_grid, desk_patches, ScoutParams(), 9.0, seed)
            covs.append(rep.covered_area_fraction)
            dets.append(rep.detected_patch_fraction)
        elapsed = time.monotonic() - t0
        assert len([p for p in desk_patches if not p.artificial]) == 245
        assert 0.25 <= np.mean(covs) <= 0.45, f"mean coverage {np.mean(covs):.3f}"
        assert 0.23 <= np.mean(dets) <= 0.45, f"mean detected {np.mean(dets):.3f}"
        assert elapsed < 60.0, f"baseline calibration took {elapsed:.1f}s"


def test_criterion_3_fi_directional_improvement(fi_runs):
    with criterion(3, "feedback-loop directional improvement"):
        runs, elapsed = fi_runs
        for plan, trace, baseline, final in runs:
            d_cov = (
                final.totals.covered_area_fraction
                - baseline.totals.covered_area_fraction
            )
            assert d_cov >= 0.20, f"coverage gain {d_cov:.3f} below 20 points"
            assert final.totals.detected_fraction > baseline.totals.detected_fraction
            report = compare(baseline, final)
            assert report.pii > 0.0
        assert elapsed < 600.0, f"ten loop runs took {elapsed:.1f}s"


def test_criterion_4_monitor_quality():
    with criterion(4, "monitoring model quality"):
        weather = synth_weather(2024)
        rng = np.random.Generator(np.random.Philox(key=77))
        true_beta = np.array([12.0, 30.0, 50.0, -40.0])  # temp, light, sin, cos
        true_intercept = 200.0
        sigma = 25.0
        samples = []
        for day in range(91, 244):
            feats = day_features(weather.day(day), None, cap=9.0)
            y = true_intercept + float(np.dot(true_beta, feats)) + sigma * float(rng.normal())
            samples.append(MonitorSample(feats, y))
        train, test = split_samples(samples, 0.2, seed=5)
        model = fit(train)
        assert r_squared(model, test) >= 0.80

        # oracle: independent lstsq solve with classic standard errors
        X = np.array([[1.0, *s.features] for s in train])
        y = np.array([s.target for s in train])
        beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        s2 = float(resid @ resid) / (len(train) - X.shape[1])
        se = np.sqrt(np.diag(s2 * np.linalg.inv(X.T @ X)))
        got = np.array([model.intercept, *model.coefficients])
        assert np.allclose(got, beta, atol=1e-6)
        truth = np.array([true_intercept, *true_beta])
        assert np.all(np.abs(got - truth) <= 3.0 * se)


def test_criterion_5_classifier_quality():
    with criterion(5, "region classifier quality"):
        sample = synthetic_region_sample(600, seed=31)
        train, test = sample[:450], sample[450:]
        clf = train_softmax(train, seed=8)
        hits = sum(1 for f, label in test if classify(clf, f) == label)
        assert hits / len(test) >= 0.90, f"held-out accuracy {hits / len(test):.3f}"


def test_criterion_6_conservation():
    with criterion(6, "visit conservation"):
        rng = np.random.Generator(np.random.Philox(key=99))
        day = DayWeather(day=150, max_temp=20.0, sunshine_hours=8.0)
        for _ in range(1000):
            per_trip = int(rng.integers(1, 5))
            colony = ColonyParams(
                initial_workers=int(rng.integers(0, 5000)),
                forager_fraction=float(rng.uniform(0.0, 1.0)),
                trips_per_forager_hour=float(rng.uniform(0.0, 0.5)),
                patches_per_trip=per_trip,
            )
            rec = simulate_day(True, day, None, colony, day=150)
            assert rec.visits == rec.completed_trips * per_trip


def test_criterion_6b_totals_reaggregation(fi_runs):
    with criterion(6, "season totals re-aggregation"):
        runs, _ = fi_runs
        for _, _, baseline, final in runs:
            for record in (baseline, final):
                visits = sum(d.visits for d in record.days)
                trips = sum(d.completed_trips for d in record.days)
                assert record.totals.total_visits == visits
                assert record.totals.total_trips == trips


def _run_python(args, cwd):
    """Run a child interpreter that imports the same beeloop as this process.

    The child runs in ``cwd``, where a relative ``PYTHONPATH`` entry (such as
    ``src``) resolves to nothing, so the absolute package root is put first.
    """
    env = dict(os.environ)
    root = str(Path(beeloop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical reruns"):
        shutil.copy(
            default_config_path().parent / "field_desk.map", tmp_path / "field.map"
        )
        (tmp_path / "scenario.conf").write_text(
            "[scenario]\nmap = field.map\nseed = 17\nout = unused\n"
            "[scouting]\nn_scouts = 40\n"
            "[foraging]\nseason_start = 130\nseason_end = 170\nscout_cadence_days = 10\n"
            "[supervisor]\nmax_iterations = 2\nmax_artificial_patches = 6\n",
            encoding="utf-8",
        )

        def tree(root: Path) -> dict[str, bytes]:
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
            }

        imported = _run_python(
            ["-c", "import beeloop; print(beeloop.__file__)"], tmp_path
        ).stdout.strip()
        assert Path(imported).resolve() == Path(beeloop.__file__).resolve(), (
            f"child imports {imported}, not {beeloop.__file__}"
        )

        for command in ("baseline", "fi"):
            out_a = tmp_path / f"{command}_a"
            out_b = tmp_path / f"{command}_b"
            for out in (out_a, out_b):
                _run_python(
                    ["-m", "beeloop", command, "--config", "scenario.conf", "--out", str(out)],
                    tmp_path,
                )
            assert tree(out_a) == tree(out_b), f"{command} outputs differ"


def test_criterion_8_supervisor_monotonicity(fi_runs):
    with criterion(8, "supervisor monotonicity"):
        runs, _ = fi_runs
        for plan, trace, baseline, final in runs:
            losses = [s.loss for s in trace]
            assert all(b < a for a, b in zip(losses, losses[1:]))
            assert len(plan.placed_patches) <= UserConfig().max_artificial_patches
            assert final.totals.total_visits >= baseline.totals.total_visits


def test_criterion_9_weather_gating():
    with criterion(9, "temperature gating threshold"):
        for temp in (14.0, 14.9, 15.0, 15.1, 20.0):
            hours = foraging_hours(DayWeather(1, temp, 6.0), None, 9.0)
            if temp < 15.0:
                assert hours == 0.0
            else:
                assert hours > 0.0
        assert foraging_hours(DayWeather(1, 20.0, 0.0), None, 9.0) == 0.0
