"""Tests of the host-speed scaling of the benchmark's timings.

    python3 -m pytest perfbench -q
"""

import hostspeed


def test_factor_uses_the_units_either_side_of_each_interval():
    times = iter([99.0, 0.01, 0.03, 0.05])  # warm-up, before 1, after 1 = before 2, after 2
    scaler = hostspeed.Scaler(unit=lambda: next(times))
    assert scaler.factor() == hostspeed.REFERENCE_S / 0.02
    assert scaler.factor() == hostspeed.REFERENCE_S / 0.04
    assert scaler.units == [0.03, 0.05]


def test_a_host_twice_as_slow_cancels_and_a_slower_program_does_not():
    quiet = hostspeed.Scaler(unit=lambda: hostspeed.REFERENCE_S)
    slow = hostspeed.Scaler(unit=lambda: 2 * hostspeed.REFERENCE_S)
    assert 1.0 * quiet.factor() == 2.0 * slow.factor() == 1.0
    assert 1.3 * quiet.factor() == 1.3


def test_unit_takes_a_measurable_time():
    assert 0.001 < hostspeed.unit_seconds() < 1.0
