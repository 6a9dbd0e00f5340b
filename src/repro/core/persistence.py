"""Saving and restoring ALEX engine state.

A deployment collects feedback over days or weeks; the learned state — the
candidate links, the policy, the action-value returns, blacklist, rollback
ledger, and distinctiveness memory — must survive restarts. The format is
plain JSON: forward-compatible, diffable, and inspectable.

The feature space itself is *not* serialized (it is deterministic given the
datasets and θ); :func:`engine_from_dict` takes a freshly built space plus
the saved state.

The stable public surface lives on :class:`~repro.core.engine.AlexEngine`:
``engine.to_dict()`` / ``AlexEngine.from_dict(space, state)`` /
``engine.save(path)`` / ``AlexEngine.load(space, path)``, which delegate to
this module's ``engine_*`` functions.
"""

from __future__ import annotations

import json

from repro.core.config import AlexConfig
from repro.core.engine import AlexEngine
from repro.core.state import StateAction
from repro.errors import ConfigError
from repro.features.feature_set import FeatureKey
from repro.features.space import FeatureSpace
from repro.links import Link, LinkSet
from repro.rdf.terms import URIRef

FORMAT_VERSION = 1

#: Sections :func:`engine_from_dict` cannot rebuild an engine without.
_REQUIRED_SECTIONS = (
    "config", "candidates", "blacklist", "confirmed", "returns", "policy", "ledger",
)

#: Config fields that earlier releases wrote into every state file and that
#: :class:`AlexConfig` no longer defines; dropped so those files load. 3.0.0
#: retired the pool fields, 5.0.0 the reporter fields.
_RETIRED_CONFIG_FIELDS = (
    "pool_workers", "pool_idle_timeout", "report_interval", "report_path",
)


def _link_to_json(link: Link) -> list[str]:
    return [link.left.value, link.right.value]


def _link_from_json(data: list[str]) -> Link:
    return Link(URIRef(data[0]), URIRef(data[1]))


def _key_to_json(key: FeatureKey) -> list[str]:
    return [key[0].value, key[1].value]


def _key_from_json(data: list[str]) -> FeatureKey:
    return (URIRef(data[0]), URIRef(data[1]))


def _state_action_to_json(state_action: StateAction) -> list:
    return [_link_to_json(state_action.state), _key_to_json(state_action.action)]


def _state_action_from_json(data: list) -> StateAction:
    return StateAction(_link_from_json(data[0]), _key_from_json(data[1]))


def engine_to_dict(engine: AlexEngine) -> dict:
    """Engine state as a JSON-serializable dict."""
    values = engine.values
    ledger = engine.ledger
    distinctiveness = engine.distinctiveness
    return {
        "format_version": FORMAT_VERSION,
        "name": engine.name,
        "config": {
            field: getattr(engine.config, field)
            for field in AlexConfig.__dataclass_fields__
        },
        "candidates": [
            {
                "link": _link_to_json(link),
                "score": engine.candidates.score(link),
            }
            for link in sorted(engine.candidates, key=lambda l: (l.left.value, l.right.value))
        ],
        "blacklist": sorted(
            (_link_to_json(link) for link in engine.blacklist), key=tuple
        ),
        "confirmed": sorted(
            (_link_to_json(link) for link in engine.confirmed), key=tuple
        ),
        "tally": [
            {"link": _link_to_json(link), "positives": tally[0], "negatives": tally[1]}
            for link, tally in sorted(
                engine._tally.items(), key=lambda kv: (kv[0].left.value, kv[0].right.value)
            )
        ],
        "returns": [
            {
                "state_action": _state_action_to_json(state_action),
                "rewards": values.returns(state_action),
            }
            for state_action in values.known_pairs()
        ],
        "policy": [
            {
                "state": _link_to_json(state),
                "greedy": _key_to_json(engine.policy.greedy_action(state)),
            }
            for state in engine.policy.states()
        ],
        "ledger": [
            {
                "state_action": _state_action_to_json(state_action),
                "links": sorted(
                    (_link_to_json(link) for link in ledger.generated_by(state_action)),
                    key=tuple,
                ),
                "negatives": ledger.negatives(state_action),
                "positives": ledger.positives(state_action),
            }
            for state_action in ledger._generated_by
        ],
        "distinctiveness": [
            {
                "feature": _key_to_json(feature),
                "negatives": distinctiveness._negatives.get(feature, 0),
                "positives": distinctiveness._positives.get(feature, 0),
                "return_sum": distinctiveness._return_sum.get(feature, 0.0),
                "return_count": distinctiveness._return_count.get(feature, 0),
            }
            for feature in sorted(
                set(distinctiveness._return_count)
                | set(distinctiveness._negatives)
                | set(distinctiveness._positives),
                key=_key_to_json,
            )
        ],
        "episodes_completed": engine.episodes_completed,
        "converged_at": engine.converged_at,
        "relaxed_converged_at": engine.relaxed_converged_at,
    }


def _config_from_json(data) -> AlexConfig:
    if not isinstance(data, dict):
        raise ConfigError(
            f"engine state 'config' must be a mapping, got {type(data).__name__}"
        )
    fields = {key: value for key, value in data.items() if key not in _RETIRED_CONFIG_FIELDS}
    for key in fields:
        if key not in AlexConfig.__dataclass_fields__:
            raise ConfigError(f"engine state 'config' has unknown field {key!r}")
    return AlexConfig(**fields)


def engine_from_dict(space: FeatureSpace, state: dict) -> AlexEngine:
    """Rebuild an engine from :func:`engine_to_dict` output and a space.

    Raises :class:`~repro.errors.ConfigError` for an unsupported format
    version, a missing section, or a ``config`` that is not a mapping of
    :class:`AlexConfig` fields.
    """
    version = state.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported engine state format version: {version!r}")
    for section in _REQUIRED_SECTIONS:
        if section not in state:
            raise ConfigError(f"engine state has no {section!r} section")
    config = _config_from_json(state["config"])
    candidates = LinkSet()
    for entry in state["candidates"]:
        candidates.add(_link_from_json(entry["link"]), entry.get("score"))
    engine = AlexEngine(space, candidates, config, name=state.get("name", "alex"))
    engine.blacklist = {_link_from_json(item) for item in state["blacklist"]}
    engine.confirmed = {_link_from_json(item) for item in state["confirmed"]}
    engine._tally = {
        _link_from_json(entry["link"]): [entry["positives"], entry["negatives"]]
        for entry in state.get("tally", ())
    }
    for entry in state["returns"]:
        state_action = _state_action_from_json(entry["state_action"])
        for reward in entry["rewards"]:
            engine.values.record_return(state_action, reward)
    for entry in state["policy"]:
        engine.policy.improve(_link_from_json(entry["state"]), _key_from_json(entry["greedy"]))
    for entry in state["ledger"]:
        state_action = _state_action_from_json(entry["state_action"])
        for link_data in entry["links"]:
            engine.ledger.record(state_action, _link_from_json(link_data))
        engine.ledger._negatives[state_action] = entry["negatives"]
        engine.ledger._positives[state_action] = entry["positives"]
    for entry in state.get("distinctiveness", ()):
        feature = _key_from_json(entry["feature"])
        engine.distinctiveness._negatives[feature] = entry["negatives"]
        engine.distinctiveness._positives[feature] = entry["positives"]
        engine.distinctiveness._return_sum[feature] = entry["return_sum"]
        engine.distinctiveness._return_count[feature] = entry["return_count"]
    # Episode counters: restart at the saved boundary.
    from repro.core.episode import Episode, EpisodeStats

    engine.episode_history = [
        EpisodeStats(index=i + 1) for i in range(state.get("episodes_completed", 0))
    ]
    engine.converged_at = state.get("converged_at")
    engine.relaxed_converged_at = state.get("relaxed_converged_at")
    engine._episode = Episode(index=len(engine.episode_history) + 1)
    engine._last_snapshot = engine.candidates.snapshot()
    return engine


def engine_save(engine: AlexEngine, path: str) -> None:
    """Write engine state to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(engine_to_dict(engine), handle, indent=1, sort_keys=True)


def engine_load(space: FeatureSpace, path: str) -> AlexEngine:
    """Read engine state from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return engine_from_dict(space, json.load(handle))
