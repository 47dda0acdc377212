"""Per-band knowledge base fed by negotiation and sensing events.

Counters are Laplace-smoothed into grant-rate and availability estimates
whose product scores a band for admission and handover target selection.
Fresh bands score 0.25 (both estimates at the 0.5 prior), so unexplored
spectrum stays eligible.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, fields, replace
from typing import Iterable


@dataclass(slots=True)
class BandRecord:
    attempts: int = 0
    grants: int = 0
    sensed: int = 0
    available: int = 0


_COUNTERS = tuple(f.name for f in fields(BandRecord))  # the snapshot's keys, in this order


class KnowledgeBase:
    """Monotone per-band event counters with smoothed estimates."""

    def __init__(self) -> None:
        # band id -> that band's live counters, created by the first write to
        # the band; reads use ``.get``.  The engine settles a running
        # session's senses here in bulk, before any score or caller reads them.
        self.records: defaultdict[int, BandRecord] = defaultdict(BandRecord)

    def record_negotiation(self, band_id: int, granted: bool) -> None:
        rec = self.records[band_id]
        rec.attempts += 1
        if granted:
            rec.grants += 1

    def record_sense(self, band_id: int, sensed: int, available: int) -> None:
        """Record ``sensed`` observations of a band, ``available`` of which met their demand.

        The one-record form of ``record_senses``.  Counters are sums, so n
        unit records equal one record of n.
        """
        self.record_senses(((band_id, sensed, available),))

    def record_senses(self, records: Iterable[tuple[int, int, int]]) -> None:
        """Record each ``(band_id, sensed, available)`` in turn, as ``record_sense`` would.

        A record needs 0 <= available <= sensed, else ``ValueError`` (the
        records before it stay recorded); a band's counters are created only
        by a record with ``sensed > 0``.
        """
        bands = self.records
        for band_id, sensed, available in records:
            if not 0 <= available <= sensed:
                raise ValueError(f"need 0 <= available <= sensed, got available={available}, sensed={sensed}")
            if sensed:
                rec = bands[band_id]
                rec.sensed += sensed
                rec.available += available

    def score(self, band_id: int) -> float:
        """The band's grant-rate estimate times its availability estimate, the record read once.

        That is ``(grants + 1) / (attempts + 2) * ((available + 1) / (sensed + 2))``;
        a band with no record scores 0.25, both estimates at the 0.5 prior.
        """
        rec = self.records.get(band_id)
        if rec is None:
            return 0.25
        return (rec.grants + 1) / (rec.attempts + 2) * ((rec.available + 1) / (rec.sensed + 2))

    def counters(self, band_id: int) -> BandRecord:
        """A copy of the raw counters for a band (zeros if never touched)."""
        return replace(self.records.get(band_id, BandRecord()))

    def to_json_dict(self) -> dict[str, dict[str, int]]:
        records = sorted(self.records.items())
        return {str(band_id): {key: getattr(rec, key) for key in _COUNTERS} for band_id, rec in records}

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
            values = {key: counters.get(key, 0) for key in _COUNTERS}
            for key in counters:
                if key not in values:
                    raise ValueError(f"band {band_id}: unknown key {key!r}")
            for key, value in values.items():
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise ValueError(f"band {band_id}: {key} must be a nonnegative integer, got {value!r}")
            rec = BandRecord(**values)
            if not 0 <= rec.grants <= rec.attempts:
                raise ValueError(f"band {band_id}: grants must be within 0..attempts")
            if not 0 <= rec.available <= rec.sensed:
                raise ValueError(f"band {band_id}: available must be within 0..sensed")
            kb.records[int(band_id)] = rec
        return kb
