"""Speed normalization recovers true time from a slowed-down trace."""

import random

import calibrate
import compare


def test_a_known_slowdown_is_divided_out_within_five_percent():
    """Ops of 80 ms true time; the machine runs 1.5x slow in the middle
    third of the trace.  Calibration samples see the same slowdown plus
    10% jitter; the normalized ops must all read ~80 ms."""
    rng = random.Random(3)
    true_s, ref = 0.080, calibrate.CAL_REF_S
    now, ops, samples = 0.0, [], []

    def slowdown(at):
        return 1.5 if 4.0 <= at < 8.0 else 1.0

    def calibrate_once():
        nonlocal now
        took = ref * slowdown(now) * rng.uniform(0.95, 1.05)
        samples.append((now + took / 2, took))
        now += took

    calibrate_once()
    while now < 12.0:
        took = true_s * slowdown(now)
        ops.append((now, now + took))
        now += took
        calibrate_once()

    normalized = calibrate.normalize(ops, samples)
    raw = [end - start for start, end in ops]
    assert max(raw) / min(raw) > 1.4, "the trace must really contain the slowdown"
    # Ops that straddle a speed change see a blend; all others are exact.
    inside = [
        value for (start, end), value in zip(ops, normalized)
        if slowdown(start - 0.2) == slowdown(end + 0.2)
    ]
    assert len(inside) > 0.9 * len(ops)
    assert all(abs(value - true_s) / true_s < 0.05 for value in inside)
    assert abs(sum(normalized) / len(normalized) - true_s) / true_s < 0.02
    assert abs(calibrate.speed_index(samples) - 1.0) < 0.1


def test_local_speed_uses_the_nearest_samples_only():
    samples = [(float(i), 1.0 if i < 50 else 2.0) for i in range(100)]
    assert calibrate.local_speed(samples, 10.0, 10.5) == 1.0
    assert calibrate.local_speed(samples, 90.0, 90.5) == 2.0
    assert calibrate.local_speed(samples, -5.0, -4.0) == 1.0
    assert calibrate.local_speed(samples, 500.0, 501.0) == 2.0
    # A long op is normalized by everything that flanks it.
    assert calibrate.local_speed(samples, 45.0, 54.0) == 1.5


def test_compare_verdicts():
    assert compare.verdict([1.0], [1.05], "lower", 0.10) == "unchanged"
    assert compare.verdict([1.0], [1.2], "lower", 0.10) == "regressed"
    assert compare.verdict([1.0], [0.8], "lower", 0.10) == "improved"
    assert compare.verdict([10.0], [8.0], "higher", 0.10) == "regressed"
    # A file whose own sets disagree by more than the bound resolves nothing...
    assert compare.verdict([1.0, 1.3], [1.2, 1.25], "lower", 0.10) == "unresolved"
    # ...unless every new set beats every base set.
    assert compare.verdict([1.0, 1.3], [0.7, 0.8], "lower", 0.10) == "improved"
