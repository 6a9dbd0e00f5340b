"""ALEX core: the reinforcement-learning link explorer (the paper's contribution)."""

from repro.core.config import BATCH_EPISODE_SIZE, DOMAIN_EPISODE_SIZE, AlexConfig
from repro.core.engine import AlexEngine
from repro.core.episode import Episode, EpisodeStats
from repro.core.parallel import PartitionedAlex
from repro.core.parallel_mp import build_space_parallel
from repro.core.persistence import (
    engine_from_dict,
    engine_load,
    engine_save,
    engine_to_dict,
)
from repro.core.policy import EpsilonGreedyPolicy
from repro.core.provenance import ExplorationLedger
from repro.core.reporting import PolicyReport, policy_report, q_value_table
from repro.core.state import ExplorationAction, StateAction, available_actions
from repro.core.value import ActionValueTable
from repro.core.workers import WorkerPool, shared_pool, shutdown_shared_pool

__all__ = [
    "ActionValueTable",
    "AlexConfig",
    "AlexEngine",
    "BATCH_EPISODE_SIZE",
    "DOMAIN_EPISODE_SIZE",
    "Episode",
    "EpisodeStats",
    "EpsilonGreedyPolicy",
    "ExplorationAction",
    "ExplorationLedger",
    "PartitionedAlex",
    "PolicyReport",
    "StateAction",
    "WorkerPool",
    "available_actions",
    "build_space_parallel",
    "engine_from_dict",
    "engine_load",
    "engine_save",
    "engine_to_dict",
    "policy_report",
    "q_value_table",
    "shared_pool",
    "shutdown_shared_pool",
]
