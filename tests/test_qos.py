from pathlib import Path

import pytest

from crsim.qos import QosProfile, TrafficType, channel_demand, priority, qos_profile, table_csv

TABLE_FILE = Path(__file__).parent / "data" / "qos_table.csv"


def test_profile_rows_match_checked_in_table():
    assert table_csv() == TABLE_FILE.read_text()


@pytest.mark.parametrize(
    "traffic, expected",
    [
        (TrafficType.VIDEO_CONFERENCING, QosProfile(4, 4, 3, 4)),
        (TrafficType.VOICE, QosProfile(1, 4, 3, 4)),
        (TrafficType.MULTICASTING, QosProfile(4, 4, 4, 4)),
    ],
)
def test_profile_examples(traffic, expected):
    assert qos_profile(traffic) == expected


@pytest.mark.parametrize(
    "traffic, expected",
    [
        (TrafficType.VIDEO_CONFERENCING, 4),
        (TrafficType.VOICE, 1),
        (TrafficType.EMAIL, 2),
    ],
)
def test_channel_demand_examples(traffic, expected):
    assert channel_demand(traffic) == expected


def test_demand_equals_bandwidth_for_all_types():
    for traffic in TrafficType:
        assert channel_demand(traffic) == qos_profile(traffic).bandwidth


@pytest.mark.parametrize(
    "traffic, expected",
    [
        (TrafficType.MULTICASTING, 16),
        (TrafficType.VOICE, 12),
        (TrafficType.EMAIL, 10),
    ],
)
def test_priority_examples(traffic, expected):
    assert priority(traffic) == expected


def test_video_conferencing_outranks_email():
    assert priority(TrafficType.VIDEO_CONFERENCING) >= priority(TrafficType.EMAIL)


def test_exactly_ten_types_with_stable_names():
    assert len(list(TrafficType)) == 10
    for traffic in TrafficType:
        assert TrafficType(traffic.value) is traffic


def test_sensitivities_within_scale():
    for traffic in TrafficType:
        p = qos_profile(traffic)
        for value in (p.bandwidth, p.delay, p.loss, p.jitter):
            assert 1 <= value <= 5


def test_profile_rejects_out_of_scale_values():
    with pytest.raises(ValueError):
        QosProfile(0, 4, 3, 4)
    with pytest.raises(ValueError):
        QosProfile(1, 6, 3, 4)
