"""Per-band knowledge base fed by negotiation and sensing events.

Counters are Laplace-smoothed into grant-rate and availability estimates
whose product scores a band for admission and handover target selection.
Fresh bands score 0.25 (both estimates at the 0.5 prior), so unexplored
spectrum stays eligible.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace


@dataclass(slots=True)
class BandRecord:
    attempts: int = 0
    grants: int = 0
    sensed: int = 0
    available: int = 0


class KnowledgeBase:
    """Monotone per-band event counters with smoothed estimates."""

    def __init__(self) -> None:
        # a record is created by the first write to its band; reads use .get
        self._records: defaultdict[int, BandRecord] = defaultdict(BandRecord)

    def record_negotiation(self, band_id: int, granted: bool) -> None:
        rec = self._records[band_id]
        rec.attempts += 1
        if granted:
            rec.grants += 1

    def record_sense(self, band_id: int, sensed: int, available: int) -> None:
        """Record ``sensed`` observations of a band, ``available`` of which met their demand.

        Counters are sums, so n unit records equal one record of n.
        """
        if not 0 <= available <= sensed:
            raise ValueError(f"need 0 <= available <= sensed, got available={available}, sensed={sensed}")
        if sensed:
            rec = self._records[band_id]
            rec.sensed += sensed
            rec.available += available

    def coop_estimate(self, band_id: int) -> float:
        rec = self._records.get(band_id)
        if rec is None:
            return 0.5
        return (rec.grants + 1) / (rec.attempts + 2)

    def availability_estimate(self, band_id: int) -> float:
        rec = self._records.get(band_id)
        if rec is None:
            return 0.5
        return (rec.available + 1) / (rec.sensed + 2)

    def score(self, band_id: int) -> float:
        return self.coop_estimate(band_id) * self.availability_estimate(band_id)

    def counters(self, band_id: int) -> BandRecord:
        """A copy of the raw counters for a band (zeros if never touched)."""
        return replace(self._records.get(band_id, BandRecord()))

    def to_json_dict(self) -> dict[str, dict[str, int]]:
        return {
            str(band_id): {
                "attempts": rec.attempts,
                "grants": rec.grants,
                "sensed": rec.sensed,
                "available": rec.available,
            }
            for band_id, rec in sorted(self._records.items())
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "KnowledgeBase":
        if not isinstance(data, dict) or not all(isinstance(c, dict) for c in data.values()):
            raise ValueError("knowledge-base snapshot must be a JSON object of per-band objects")
        kb = cls()
        for band_id, counters in data.items():
            # only the keys to_json_dict writes: "01" would become band 1 and replace "1"
            digits = isinstance(band_id, str) and band_id.isascii() and band_id.isdigit()
            if not (digits and str(int(band_id)) == band_id):
                raise ValueError(f"band id must be a nonnegative integer without leading zeros, got {band_id!r}")
            values = {key: counters.get(key, 0) for key in ("attempts", "grants", "sensed", "available")}
            for key, value in values.items():
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise ValueError(f"band {band_id}: {key} must be a nonnegative integer, got {value!r}")
            rec = BandRecord(**values)
            if not 0 <= rec.grants <= rec.attempts:
                raise ValueError(f"band {band_id}: grants must be within 0..attempts")
            if not 0 <= rec.available <= rec.sensed:
                raise ValueError(f"band {band_id}: available must be within 0..sensed")
            kb._records[int(band_id)] = rec
        return kb
