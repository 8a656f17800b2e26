"""Discrete-event simulator for multi-sink underwater acoustic sensor
networks: Q-learning anypath routing (qlfr), a depth-greedy baseline (dbr),
an acoustic channel model, and an analytical performance model."""

from .channel import ChannelParams
from .config import ConfigError, ScenarioConfig, parse_config
from .engine import MetricsRecord, Simulation, run
from .qlfr import PacketHeader
from .world import NodeState, RoutingKnowledge

__all__ = [
    "ChannelParams", "ConfigError", "ScenarioConfig", "parse_config",
    "MetricsRecord", "Simulation", "run", "PacketHeader", "NodeState", "RoutingKnowledge",
]
