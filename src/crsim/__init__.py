"""Cognitive-radio spectrum sharing simulator with an analytic cross-check."""

__version__ = "0.1.0"

from .markov import (  # noqa: F401
    ChainError,
    Distribution,
    OccupancyChain,
    blocking_probability,
    noncompletion_probability,
    prob_free_at_least,
    stationary,
    transition_matrix,
)
from .qos import QosProfile, TrafficType, channel_demand, priority, qos_profile  # noqa: F401
from .scenario import Scenario, ScenarioError, canonical_preset  # noqa: F401
from .simcore import CompareReport, Engine, Metrics, compare, run  # noqa: F401
