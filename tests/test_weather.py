import pytest
from hypothesis import given, strategies as st

from beeloop.errors import DuplicateDayError, MissingDayError, OutOfRangeValueError
from beeloop.weather import (
    ClimateProfile,
    DayWeather,
    EnvControl,
    foraging_hours,
    load_weather,
    synth_weather,
)


def csv_for(days):
    lines = ["day,max_temp_c,sunshine_h"]
    lines += [f"{d},{t},{s}" for d, t, s in days]
    return "\n".join(lines) + "\n"


def full_year(temp=18.0, sun=8.0):
    return [(d, temp, sun) for d in range(1, 366)]


def test_load_full_year():
    series = load_weather(csv_for(full_year()))
    assert len(series.days) == 365
    assert series.day(100).max_temp == 18.0


@pytest.mark.parametrize("day", [0, -1, 366])
def test_day_outside_year_rejected(day):
    series = synth_weather(1)
    assert series.day(1).day == 1 and series.day(365).day == 365
    with pytest.raises(OutOfRangeValueError):
        series.day(day)


def test_load_missing_day():
    rows = [r for r in full_year() if r[0] != 100]
    with pytest.raises(MissingDayError) as err:
        load_weather(csv_for(rows))
    assert "100" in str(err.value)


def test_load_duplicate_day():
    rows = full_year() + [(42, 10.0, 5.0)]
    with pytest.raises(DuplicateDayError):
        load_weather(csv_for(rows))


def test_load_out_of_range_sunshine():
    rows = full_year()
    rows[10] = (11, 18.0, 25.0)
    with pytest.raises(OutOfRangeValueError):
        load_weather(csv_for(rows))


def test_load_requires_header():
    with pytest.raises(OutOfRangeValueError):
        load_weather("1,18.0,8.0\n")


def test_roundtrip_csv_load():
    series = synth_weather(7)
    rows = [(dw.day, repr(dw.max_temp), repr(dw.sunshine_hours)) for dw in series.days]
    assert load_weather(csv_for(rows)) == series


def test_synth_deterministic():
    assert synth_weather(123) == synth_weather(123)
    assert synth_weather(123) != synth_weather(124)


def test_synth_noiseless_peak_equals_mean_plus_amplitude():
    profile = ClimateProfile(
        temp_mean_c=11.0, temp_amplitude_c=8.0, temp_noise_c=0.0,
        sunshine_mean_h=8.0, sunshine_amplitude_h=5.0, sunshine_noise_h=0.0,
        peak_day=196,
    )
    series = synth_weather(5, profile)
    assert series.day(196).max_temp == 11.0 + 8.0
    assert series.day(196).sunshine_hours == 13.0


def test_synth_flat_cold_year_never_forages():
    profile = ClimateProfile(
        temp_mean_c=10.0, temp_amplitude_c=0.0, temp_noise_c=0.0,
        sunshine_mean_h=8.0, sunshine_amplitude_h=0.0, sunshine_noise_h=0.0,
    )
    series = synth_weather(5, profile)
    assert all(dw.max_temp < 15.0 for dw in series.days)
    assert all(foraging_hours(dw, None, 9.0) == 0.0 for dw in series.days)


def test_below_threshold_yields_zero_hours():
    assert foraging_hours(DayWeather(1, 14.9, 9.0), None, 9.0) == 0.0


def test_nine_hour_cap():
    assert foraging_hours(DayWeather(180, 20.0, 9.0), None, 9.0) == 9.0
    assert foraging_hours(DayWeather(180, 20.0, 13.0), None, 9.0) == 9.0


def test_control_lifts_cold_day():
    ctrl = EnvControl(2.0, 2.0, (1, 365))
    assert foraging_hours(DayWeather(1, 14.0, 6.0), ctrl, 12.0) == 8.0


def test_control_outside_window_is_inert():
    ctrl = EnvControl(5.0, 5.0, (100, 200))
    assert foraging_hours(DayWeather(1, 14.0, 6.0), ctrl, 12.0) == 0.0


def test_threshold_is_inclusive():
    assert foraging_hours(DayWeather(1, 15.0, 6.0), None, 9.0) == 6.0
    assert foraging_hours(DayWeather(1, 15.0 - 1e-9, 6.0), None, 9.0) == 0.0


def test_env_control_validation():
    with pytest.raises(ValueError):
        EnvControl(-1.0, 0.0, (1, 10))
    with pytest.raises(ValueError):
        EnvControl(0.0, 0.0, (10, 1))


def test_env_control_empty_window_is_never_active():
    """An empty season's window, end = start - 1, is legal; one shorter is not."""
    with pytest.raises(ValueError):
        EnvControl(0.0, 0.0, (10, 8))
    ctrl = EnvControl(0.0, 0.0, (91, 90))
    assert not any(ctrl.active_on(day) for day in range(1, 366))


hours_args = st.tuples(
    st.floats(-10.0, 35.0),          # max_temp
    st.floats(0.0, 24.0),            # sunshine
    st.floats(0.0, 5.0),             # uplift
    st.floats(0.0, 8.0),             # extra light
)


@given(hours_args, hours_args)
def test_foraging_hours_monotone(a, b):
    cap = 16.0
    lo = tuple(min(x, y) for x, y in zip(a, b))
    hi = tuple(max(x, y) for x, y in zip(a, b))

    def run(args):
        temp, sun, uplift, extra = args
        ctrl = EnvControl(uplift, extra, (1, 365))
        return foraging_hours(DayWeather(50, temp, sun), ctrl, cap)

    assert run(lo) <= run(hi)
    assert 0.0 <= run(hi) <= cap


def test_peak_day_bounded_by_the_year():
    assert ClimateProfile(peak_day=1).peak_day == 1
    assert ClimateProfile(peak_day=365).peak_day == 365
    for value in (0, 366, 10**400):
        with pytest.raises(ValueError):
            ClimateProfile(peak_day=value)
