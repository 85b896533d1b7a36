"""Times at the reference speed follow the probes around each request."""

import pytest

from perfbench import speed

MS = 1_000_000


def _meter(probes):
    """A meter with probes (at ns, probe ns) set by hand."""
    m = speed.SpeedMeter()
    for at, ns in probes:
        m.at.append(at)
        m.ns.append(ns)
    return m


def test_reference_speed_leaves_times_unchanged():
    m = _meter([(i * 50 * MS, speed.REFERENCE_NS) for i in range(20)])
    assert m.scale([100 * MS, 700 * MS], [3 * MS, 40 * MS]) == [3 * MS, 40 * MS]


def test_a_slow_spell_scales_only_the_requests_within_it():
    slow = [(i * 50 * MS, 2 * speed.REFERENCE_NS) for i in range(10)]
    fast = [((10 + i) * 50 * MS, speed.REFERENCE_NS) for i in range(20)]
    m = _meter(slow + fast)
    assert m.scale([100 * MS], [6 * MS]) == [3 * MS]
    assert m.scale([1300 * MS], [6 * MS]) == [6 * MS]


def test_the_median_probe_in_the_window_is_used():
    ns = [speed.REFERENCE_NS] * 7 + [50 * speed.REFERENCE_NS]
    m = _meter([(i * 50 * MS, n) for i, n in enumerate(ns)])
    assert m.scale([200 * MS], [MS]) == [MS]


def test_a_request_far_from_every_probe_takes_the_nearest():
    m = _meter([(0, speed.REFERENCE_NS), (10_000 * MS, 4 * speed.REFERENCE_NS)])
    assert m.scale([3_000 * MS], [8 * MS]) == pytest.approx([8 * MS])
    assert m.scale([20_000 * MS], [8 * MS]) == pytest.approx([2 * MS])


def test_tick_probes_at_most_once_per_interval():
    m = speed.SpeedMeter()
    m.tick()
    m.tick()
    assert len(m.ns) == 1 and m.ns[0] > 0
    m._next = 0
    m.tick()
    assert len(m.ns) == 2 and m.at[0] < m.at[1]
