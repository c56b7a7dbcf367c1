"""Independent correctness oracles for the benchmark.

Nothing here imports ``repro``: the checks read the same JSON files the
program loads, keep their own copy of the preference values, and compute
skyline probabilities by their own means.

* :func:`harris_bracket` — dominance events are increasing events over
  independent preference variables, so by the Harris (FKG) inequality
  ``prod_i (1 - Pr(e_i)) <= sky <= min_i (1 - Pr(e_i))``.
* :func:`exact_sky` — union-find over the differing ``(dimension,
  value)`` keys, then Eq. 6 inclusion-exclusion per component.
* :func:`monte_carlo_sky` — NumPy Monte-Carlo over the same variables.

:func:`selftest` reproduces the paper's worked values and shows that the
checker rejects the independent-dominance (Sac) answers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

Key = Tuple[int, object]

#: Worlds drawn per NumPy batch by :func:`monte_carlo_sky`.
_MC_CHUNK = 10_000


class Preferences:
    """``Pr(a ≺ b)`` per dimension, read from a preference JSON payload."""

    def __init__(self, payload: dict) -> None:
        self.dimensionality = int(payload["dimensionality"])
        self._table: List[Dict[Tuple[object, object], float]] = [
            {} for _ in range(self.dimensionality)
        ]
        for dimension, pairs in enumerate(payload["preferences"]):
            for a, b, forward, backward in pairs:
                self.set(dimension, a, b, forward, backward)

    @classmethod
    def load(cls, path: Path) -> "Preferences":
        return cls(json.loads(Path(path).read_text()))

    def set(self, dimension: int, a, b, forward: float, backward: float) -> None:
        self._table[dimension][(a, b)] = float(forward)
        self._table[dimension][(b, a)] = float(backward)

    def get(self, dimension: int, a, b) -> float:
        """``Pr(a ≺ b)``; a missing pair is a fault of the inputs."""
        return self._table[dimension][(a, b)]


def load_objects(path: Path) -> List[Tuple]:
    """Objects of a dataset JSON payload, as hashable tuples."""
    payload = json.loads(Path(path).read_text())
    return [tuple(row) for row in payload["objects"]]


def materialize(
    objects: Sequence[Tuple], target: int, competitors: Iterable[int] | None, dims: Iterable[int] | None
) -> Tuple[Tuple, List[Tuple]]:
    """The restricted question as a full one.

    Competitors default to every other object; a dimension outside
    ``dims`` takes the target's own value, so it can neither help nor
    hinder dominance.
    """
    own = objects[target]
    pool = range(len(objects)) if competitors is None else competitors
    keep = set(range(len(own))) if dims is None else set(dims)
    rows = []
    for index in pool:
        if index == target:
            continue
        row = objects[index]
        rows.append(tuple(row[j] if j in keep else own[j] for j in range(len(own))))
    return own, rows


def _events(prefs: Preferences, target: Tuple, competitors: Sequence[Tuple]):
    """``(keys, factor probabilities)`` per competitor; ``None`` on a duplicate."""
    events = []
    for row in competitors:
        keys = tuple((j, v) for j, (v, o) in enumerate(zip(row, target)) if v != o)
        if not keys:
            return None
        events.append((keys, [prefs.get(j, v, target[j]) for j, v in keys]))
    return events


def harris_bracket(prefs: Preferences, target: Tuple, competitors: Sequence[Tuple]) -> Tuple[float, float]:
    """``(prod (1 - Pr(e_i)), min (1 - Pr(e_i)))``; ``(0, 0)`` on a duplicate."""
    events = _events(prefs, target, competitors)
    if events is None:
        return 0.0, 0.0
    lower, upper = 1.0, 1.0
    for _, probabilities in events:
        miss = 1.0 - math.prod(probabilities)
        lower *= miss
        upper = min(upper, miss)
    return lower, upper


def exact_sky(prefs: Preferences, target: Tuple, competitors: Sequence[Tuple]) -> float:
    """Exact ``sky`` by union-find components and inclusion-exclusion."""
    events = _events(prefs, target, competitors)
    if events is None:
        return 0.0
    probability_of: Dict[Key, float] = {}
    live: List[frozenset] = []
    for keys, probabilities in events:
        if any(p == 0.0 for p in probabilities):
            continue  # a null event adds nothing to the union
        probability_of.update(zip(keys, probabilities))
        live.append(frozenset(keys))
    # Union-find over keys: events sharing a variable are dependent.
    parent: Dict[Key, Key] = {}

    def find(key: Key) -> Key:
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    for keys in live:
        for key in keys:
            parent.setdefault(key, key)
        first = find(next(iter(keys)))
        for key in keys:
            root = find(key)
            if root != first:
                parent[root] = first
    components: Dict[Key, List[frozenset]] = {}
    for keys in live:
        components.setdefault(find(next(iter(keys))), []).append(keys)
    sky = 1.0
    for members in components.values():
        sky *= _inclusion_exclusion(_drop_supersets(members), probability_of)
    return min(max(sky, 0.0), 1.0)


def _drop_supersets(members: List[frozenset]) -> List[frozenset]:
    """An event whose keys include another's is contained in it (same union)."""
    members = sorted(set(members), key=len)
    kept: List[frozenset] = []
    for keys in members:
        if not any(small <= keys for small in kept):
            kept.append(keys)
    return kept


def _inclusion_exclusion(members: List[frozenset], probability_of: Dict[Key, float]) -> float:
    """``1 - Pr(union of events)`` = sum over subsets of ``(-1)^|I| Pr(E_I)``."""
    if len(members) > 24:
        raise ValueError(f"component of {len(members)} events is too large to enumerate")
    keys = sorted({key for event in members for key in event}, key=repr)
    column = {key: k for k, key in enumerate(keys)}
    p = np.array([probability_of[key] for key in keys])
    incidence = np.zeros((len(members), len(keys)), dtype=bool)
    for i, event in enumerate(members):
        incidence[i, [column[key] for key in event]] = True
    union = np.zeros((1, len(keys)), dtype=bool)
    product = np.ones(1)
    sign = np.ones(1)
    for row in incidence:
        fresh = row & ~union
        factor = np.where(fresh, p, 1.0).prod(axis=1)
        union = np.concatenate([union, union | row])
        product = np.concatenate([product, product * factor])
        sign = np.concatenate([sign, -sign])
    return math.fsum((sign * product).tolist())


def monte_carlo_sky(
    prefs: Preferences, target: Tuple, competitors: Sequence[Tuple], samples: int, rng: np.random.Generator
) -> float:
    """Fraction of ``samples`` sampled worlds in which the target is undominated.

    A world draws every preference variable the competitors read, one per
    distinct ``(dimension, value)`` key, independently with its ``Pr``.
    """
    events = _events(prefs, target, competitors)
    if events is None:
        return 0.0
    column: Dict[Key, int] = {}
    probabilities: List[float] = []
    members = []
    for keys, factors in events:
        for key, p in zip(keys, factors):
            if key not in column:
                column[key] = len(column)
                probabilities.append(p)
        members.append([column[key] for key in keys])
    p = np.array(probabilities)
    free = 0
    for start in range(0, samples, _MC_CHUNK):
        draws = rng.random((min(_MC_CHUNK, samples - start), len(p))) < p
        dominated = np.zeros(len(draws), dtype=bool)
        for keys in members:
            dominated |= draws[:, keys].all(axis=1)
        free += int(np.count_nonzero(~dominated))
    return free / samples


def hoeffding_radius(samples: int, delta: float) -> float:
    """Two-sided Hoeffding half-width for ``samples`` draws at level ``1 - delta``."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


def selftest() -> None:
    """The paper's worked values; raises ``AssertionError`` on a mismatch."""
    half = {"dimensionality": 2, "preferences": [[], []]}
    prefs = Preferences(half)
    for dimension, values in enumerate((("o1", "x1", "x2"), ("o2", "y1", "y2"))):
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                prefs.set(dimension, a, b, 0.5, 0.5)
    # Running example (Figure 4): sky(O) = 3/16.
    running = [("o1", "o2"), ("x1", "y1"), ("x1", "o2"), ("x2", "y2"), ("o1", "y1")]
    target, rows = materialize(running, 0, None, None)
    assert abs(exact_sky(prefs, target, rows) - 3 / 16) < 1e-15
    lower, upper = harris_bracket(prefs, target, rows)
    assert lower <= 3 / 16 <= upper
    # Observation example (Figure 1): (1/2, 1/4, 1/2); Sac's (3/8, 1/4, 3/8) fails.
    obs = Preferences(half)
    obs.set(0, "s", "t", 0.5, 0.5)
    obs.set(1, "alpha", "beta", 0.5, 0.5)
    observation = [("s", "alpha"), ("t", "alpha"), ("t", "beta")]
    truth = (0.5, 0.25, 0.5)
    sac = (0.375, 0.25, 0.375)
    rng = np.random.default_rng(0)
    for index in range(3):
        target, rows = materialize(observation, index, None, None)
        value = exact_sky(obs, target, rows)
        assert abs(value - truth[index]) < 1e-15
        estimate = monte_carlo_sky(obs, target, rows, 20000, rng)
        assert abs(estimate - truth[index]) <= hoeffding_radius(20000, 1e-9)
        if sac[index] != truth[index]:
            assert not abs(sac[index] - value) <= 1e-12, "checker accepted Sac's answer"
