"""Traffic types, their QoS sensitivity profiles, and channel demand.

Each traffic type carries four sensitivity levels (bandwidth, delay, loss,
jitter) on a 1..5 scale (very low = 1 .. very high = 5).  The bandwidth
sensitivity doubles as the number of channels a session of that type
requests; the row sum is used as an admission priority.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum


class TrafficType(Enum):
    """The ten supported transmission types; ``TrafficType(name)`` looks one up by its stable textual name."""

    VOICE = "Voice"
    ECOMMERCE = "ECommerce"
    TRANSACTIONS = "Transactions"
    EMAIL = "Email"
    TELNET = "Telnet"
    CASUAL_BROWSING = "CasualBrowsing"
    SERIOUS_BROWSING = "SeriousBrowsing"
    FILE_TRANSFERS = "FileTransfers"
    VIDEO_CONFERENCING = "VideoConferencing"
    MULTICASTING = "Multicasting"


@dataclass(frozen=True, slots=True)
class QosProfile:
    """Sensitivity levels for one traffic type, each in 1..5."""

    bandwidth: int
    delay: int
    loss: int
    jitter: int

    def __post_init__(self) -> None:
        for field in ("bandwidth", "delay", "loss", "jitter"):
            v = getattr(self, field)
            if not isinstance(v, int) or not 1 <= v <= 5:
                raise ValueError(f"{field} sensitivity must be an integer in [1, 5], got {v!r}")


_PROFILES: dict[TrafficType, QosProfile] = {
    TrafficType.VOICE: QosProfile(1, 4, 3, 4),
    TrafficType.ECOMMERCE: QosProfile(2, 4, 4, 2),
    TrafficType.TRANSACTIONS: QosProfile(2, 4, 4, 2),
    TrafficType.EMAIL: QosProfile(2, 2, 4, 2),
    TrafficType.TELNET: QosProfile(2, 3, 4, 2),
    TrafficType.CASUAL_BROWSING: QosProfile(2, 3, 3, 2),
    TrafficType.SERIOUS_BROWSING: QosProfile(3, 4, 4, 2),
    TrafficType.FILE_TRANSFERS: QosProfile(4, 2, 3, 2),
    TrafficType.VIDEO_CONFERENCING: QosProfile(4, 4, 3, 4),
    TrafficType.MULTICASTING: QosProfile(4, 4, 4, 4),
}


def qos_profile(traffic: TrafficType) -> QosProfile:
    """Return the sensitivity profile for a traffic type."""
    return _PROFILES[traffic]


def channel_demand(traffic: TrafficType) -> int:
    """Number of channels a session of this type requests.

    Equal to the bandwidth sensitivity; a bandwidth-4 type on an 8-channel
    band therefore asks for 4 of the 8 channels.
    """
    return _PROFILES[traffic].bandwidth


def priority(traffic: TrafficType) -> int:
    """Admission priority: the sum of all four sensitivities (higher first).

    Equal priorities are not ordered here; ``su_fsm.order_arrivals`` keeps
    such arrivals in their listed order.
    """
    p = _PROFILES[traffic]
    return p.bandwidth + p.delay + p.loss + p.jitter


def table_csv() -> str:
    """Render the whole profile table as CSV (type,bandwidth,delay,loss,jitter)."""
    out = io.StringIO()
    out.write("type,bandwidth,delay,loss,jitter\n")
    for traffic in TrafficType:
        p = _PROFILES[traffic]
        out.write(f"{traffic.value},{p.bandwidth},{p.delay},{p.loss},{p.jitter}\n")
    return out.getvalue()
