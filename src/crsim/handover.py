"""Spectral handover: choosing a replacement band for a failing session."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .learning import KnowledgeBase
from .spectrum_env import BandView, SpectrumBand

Bands = Sequence[BandView] | Sequence[SpectrumBand]


@dataclass(frozen=True, slots=True)
class HandoverPlan:
    source: int
    target: int | None


def select_target(
    bands: Bands,
    current: int,
    demand: int,
    kb: KnowledgeBase | None = None,
) -> int | None:
    """Best alternative band able to host ``demand`` channels, if any.

    Candidates are every band other than the current one with enough free
    channels and no resident secondary session; the knowledge-base score
    ranks them, ties breaking toward the lowest band id.  The result is
    independent of the order bands are listed in.  ``bands`` may be
    ``BandView`` snapshots or the live ``SpectrumBand`` objects: only
    ``band_id``, ``free`` and ``su_busy`` are read.  Pass ``current=-1``
    when the session holds no band.
    """
    best: int | None = None
    best_score = -1.0
    for view in bands:
        if view.band_id == current or view.su_busy or view.free < demand:
            continue
        score = kb.score(view.band_id) if kb is not None else 0.25
        if score > best_score or (score == best_score and (best is None or view.band_id < best)):
            best = view.band_id
            best_score = score
    return best


def plan_handover(bands: Bands, current: int, demand: int, kb: KnowledgeBase | None) -> HandoverPlan:
    """Plan a handover away from ``current``; target is None when no band qualifies."""
    return HandoverPlan(source=current, target=select_target(bands, current, demand, kb))
