"""Discrete-event simulation kernel: engine, resources, statistics."""

from .engine import Simulator
from .resources import BandwidthLink, FcfsResource
from .stats import Counter, Histogram, StatsRegistry, TimeSeries

__all__ = [
    "Simulator",
    "BandwidthLink",
    "FcfsResource",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "TimeSeries",
]
