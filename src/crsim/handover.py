"""Spectral handover: choosing a replacement band for a failing session."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .learning import KnowledgeBase
from .spectrum_env import SpectrumBand


@dataclass(frozen=True, slots=True)
class HandoverPlan:
    source: int
    target: int | None


def select_target(
    bands: Iterable[SpectrumBand],
    current: int,
    demand: int,
    kb: KnowledgeBase,
) -> int | None:
    """Best alternative band able to host ``demand`` channels, if any.

    Candidates are every band other than the current one with no resident
    secondary session and enough free channels; the knowledge-base score
    ranks them, ties breaking toward the lowest band id.  The result is
    independent of the order bands are listed in.  Pass ``current=-1``
    when the session holds no band.
    """
    best: int | None = None
    best_score = -1.0
    for band in bands:
        # most bands of a busy run hold a session: test that before the free property
        if band.su is not None or band.band_id == current or band.free < demand:
            continue
        score = kb.score(band.band_id)
        if score > best_score or (score == best_score and (best is None or band.band_id < best)):
            best = band.band_id
            best_score = score
    return best


def plan_handover(bands: Iterable[SpectrumBand], current: int, demand: int, kb: KnowledgeBase) -> HandoverPlan:
    """Plan a handover away from ``current``; target is None when no band qualifies."""
    return HandoverPlan(source=current, target=select_target(bands, current, demand, kb))
