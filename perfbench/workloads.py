"""Seeded inputs and the three workloads of the benchmark.

Each workload writes its inputs as JSON (:meth:`Workload.generate`),
hands the program only those files through ``repro.io``, and runs whole
rounds of the same operations through the public API with the engine's
defaults.  Answers are kept for :meth:`Workload.check`, which compares
them with :mod:`oracle` and never with the program itself.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

import oracle
import repro
import repro.io
from repro.data.elicitation import elicitation_session
from repro.data.prefgen import random_preferences
from repro.errors import ReproError
from repro.serve import ServeClient, ServeConfig, SkylineServer

#: Level at which sampled answers are compared with the oracles.
CHECK_DELTA = 1e-9
#: Absolute tolerance between an exact answer and an exact oracle value.
EXACT_TOLERANCE = 1e-12


def sampled_radius(samples: int) -> float:
    """Hoeffding radius of a sampled answer at ``CHECK_DELTA``.

    Sam+ draws no sample when preprocessing alone decides the answer;
    that answer is exact and gets no radius.
    """
    return oracle.hoeffding_radius(samples, CHECK_DELTA) if samples else 0.0


def block_zipf(rng: np.random.Generator, blocks: int, per_block: int, d: int = 4, values: int = 10) -> List[Tuple[str, ...]]:
    """Block-zipf objects (the paper's Table 1 synthetic) with equal blocks.

    Every block owns a private domain of ``values`` values per dimension,
    drawn with Zipf skew (exponent 1).  Blocks hold exactly ``per_block``
    distinct objects: with uniform block assignment the largest block,
    and with it the 2^m cost of the largest Det component, moves 2x
    between seeds, which no bound could absorb.
    """
    weights = 1.0 / np.arange(1, values + 1)
    weights /= weights.sum()
    objects: List[Tuple[str, ...]] = []
    for block in range(blocks):
        seen = set()
        while len(seen) < per_block:
            ranks = rng.choice(values, size=d, p=weights)
            row = tuple(f"b{block:03d}d{j}v{int(ranks[j]):02d}" for j in range(d))
            if row not in seen:
                seen.add(row)
                objects.append(row)
    return objects


class Workload:
    """One workload: inputs, set-up, rounds and checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 7])
        self.rounds = 0
        self.problems: List[str] = []
        self.notes: Dict[str, object] = {}

    # -- inputs -------------------------------------------------------------
    def write_inputs(self, objects: Sequence[Tuple]) -> None:
        dataset = repro.Dataset(list(objects))
        preferences = random_preferences(dataset, seed=np.random.default_rng([self.seed, 11]))
        self.dataset_path = self.workdir / "dataset.json"
        self.preferences_path = self.workdir / "preferences.json"
        repro.io.save_dataset(dataset, self.dataset_path)
        repro.io.save_preferences(preferences, self.preferences_path)
        # The oracles' own copy of the inputs.
        self.objects = oracle.load_objects(self.dataset_path)
        self.prefs = oracle.Preferences.load(self.preferences_path)

    def load(self) -> None:
        self.dataset = repro.io.load_dataset(self.dataset_path)
        self.preferences = repro.io.load_preferences(self.preferences_path)

    # -- phases -------------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        """Release the state of a set-up that will not be measured."""

    def round(self) -> Tuple[int, int, float]:
        """Run one round: ``(attempted, failed, measured seconds)``."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def trace_counts(self) -> Dict[str, float]:
        """Counts of the timed phase that no program result carries."""
        return {}

    # -- helpers ------------------------------------------------------------
    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
        self.notes["problems"] = self.notes.get("problems", 0) + 1

    def check_bracket(self, where: str, value: float, target: int, competitors=None, dims=None) -> None:
        own, rows = oracle.materialize(self.objects, target, competitors, dims)
        lower, upper = oracle.harris_bracket(self.prefs, own, rows)
        if not lower - EXACT_TOLERANCE <= value <= upper + EXACT_TOLERANCE:
            self.problem(f"{where}: {value!r} outside the Harris bracket [{lower!r}, {upper!r}]")

    def check_exact(self, where: str, value: float, target: int, competitors=None, dims=None) -> None:
        own, rows = oracle.materialize(self.objects, target, competitors, dims)
        expected = oracle.exact_sky(self.prefs, own, rows)
        if abs(value - expected) > EXACT_TOLERANCE:
            self.problem(f"{where}: {value!r} differs from the independent exact value {expected!r}")

    def keep_answers(self, answers: List[float]) -> None:
        """Rounds repeat the same operations: their answers must not change."""
        if self.rounds == 0:
            self.answers = answers
        elif answers != self.answers:
            self.problem(f"round {self.rounds} answered differently from round 0")
        self.rounds += 1


class AllSkyBlockZipf(Workload):
    """``sky`` of every object of a block-zipf dataset by the default ``auto``."""

    name = "allsky_blockzipf"
    blocks, per_block = 10, 10
    exact_samples = 16

    def generate(self) -> None:
        self.write_inputs(block_zipf(self.rng, self.blocks, self.per_block))

    def setup(self) -> None:
        self.load()
        self.engine = repro.SkylineProbabilityEngine(self.dataset, self.preferences)

    def round(self):
        started = time.perf_counter()
        if self.engine is None:  # a fresh engine: its memo would answer the round
            self.engine = repro.SkylineProbabilityEngine(self.dataset, self.preferences)
        result = repro.batch_skyline_probabilities(self.engine, workers=1)
        self.engine = None
        seconds = time.perf_counter() - started
        self.keep_answers([(i, r.probability, r.exact) for i, r in zip(result.indices, result.reports)])
        return len(self.objects), len(result.failures), seconds

    def check(self) -> None:
        answered = {i: (p, exact) for i, p, exact in self.answers}
        for i in range(len(self.objects)):
            if i not in answered:
                continue  # counted as failed
            value, exact = answered[i]
            if not exact:
                self.problem(f"object {i}: auto answered inexactly")
            self.check_bracket(f"object {i}", value, i)
        sample = self.rng.choice(sorted(answered), size=min(self.exact_samples, len(answered)), replace=False)
        for i in sample.tolist():
            self.check_exact(f"object {i}", answered[i][0], i)
        self.notes["exact_checked"] = len(sample)


class RestrictedGrid(Workload):
    """Targets x (competitor shortlist, attribute subspace) in one shared pass."""

    name = "restricted_grid"
    blocks, per_block = 10, 10
    target_blocks, targets_per_block = 4, 2
    shortlist_sizes = (12, 24, 48)
    subspaces = ((0, 1), (2, 3), (0, 1, 2), (1, 2, 3), None)
    exact_samples = 32

    def generate(self) -> None:
        self.write_inputs(block_zipf(self.rng, self.blocks, self.per_block))
        n = len(self.objects)
        # Blocks, and members, with a block-mate equal on a two-dimensional
        # subspace come first, so that the projected-duplicate check has cells.
        members_of = {
            block: self.rng.permutation(np.arange(block * self.per_block, (block + 1) * self.per_block)).tolist()
            for block in self.rng.permutation(self.blocks).tolist()
        }
        for members in members_of.values():
            twins = {i for i in members if self._has_twin(i, members)}
            members.sort(key=lambda i: i not in twins)
        ranked = sorted(members_of, key=lambda block: not self._has_twin(members_of[block][0], members_of[block]))
        blocks = ranked[: self.target_blocks]
        self.targets = [i for block in blocks for i in members_of[block][: self.targets_per_block]]
        # Nested shortlists that start with the targets' block-mates, so
        # projected duplicates occur on the two-dimensional subspaces.
        mates = [i for i in range(n) if i // self.per_block in set(blocks)]
        others = [i for i in range(n) if i not in set(mates)]
        order = self.rng.permutation(mates).tolist() + self.rng.permutation(others).tolist()
        self.shortlists = [tuple(sorted(order[:size])) for size in self.shortlist_sizes] + [None]
        self.restrictions = [(shortlist, dims) for shortlist in self.shortlists for dims in self.subspaces]

    def _has_twin(self, target: int, members: List[int]) -> bool:
        own = self.objects[target]
        return any(
            other != target and all(self.objects[other][j] == own[j] for j in dims)
            for other in members
            for dims in self.subspaces[:2]
        )

    def setup(self) -> None:
        self.load()
        self.engine = repro.SkylineProbabilityEngine(self.dataset, self.preferences)

    def round(self):
        cells = len(self.targets) * len(self.restrictions)
        started = time.perf_counter()
        if self.engine is None:
            self.engine = repro.SkylineProbabilityEngine(self.dataset, self.preferences)
        try:
            result = repro.restricted_skyline_probabilities(self.engine, self.targets, restrictions=self.restrictions)
        except ReproError as error:
            self.problem(f"restricted grid failed: {error}")
            return cells, cells, time.perf_counter() - started
        finally:
            self.engine = None
        seconds = time.perf_counter() - started
        self.keep_answers([[(r.probability, r.exact) for r in row] for row in result.reports])
        return cells, 0, seconds

    def check(self) -> None:
        if self.rounds == 0:
            return
        grid = self.answers
        cells = [(t, r) for t in range(len(self.targets)) for r in range(len(self.restrictions))]
        duplicates = 0
        for t, r in cells:
            target = self.targets[t]
            shortlist, dims = self.restrictions[r]
            value, exact = grid[t][r]
            where = f"target {target} restriction {r}"
            if not exact:
                self.problem(f"{where}: answered inexactly")
            self.check_bracket(where, value, target, shortlist, dims)
            own, rows = oracle.materialize(self.objects, target, shortlist, dims)
            if own in rows:
                duplicates += 1
                if value != 0.0:
                    self.problem(f"{where}: projected duplicate answered {value!r}, not 0")
        for position in self.rng.choice(len(cells), size=min(self.exact_samples, len(cells)), replace=False).tolist():
            t, r = cells[position]
            shortlist, dims = self.restrictions[r]
            self.check_exact(f"target {self.targets[t]} restriction {r}", grid[t][r][0], self.targets[t], shortlist, dims)
        # Monotonicity: more competitors never raise sky, more dimensions never lower it.
        index = {restriction: r for r, restriction in enumerate(self.restrictions)}
        for t in range(len(self.targets)):
            for dims in self.subspaces:
                chain = [grid[t][index[(shortlist, dims)]][0] for shortlist in self.shortlists]
                if any(b > a + EXACT_TOLERANCE for a, b in zip(chain, chain[1:])):
                    self.problem(f"target {self.targets[t]} dims {dims}: a larger shortlist raised sky {chain}")
            for shortlist in self.shortlists:
                for low, high in (((0, 1), (0, 1, 2)), ((0, 1, 2), None), ((2, 3), (1, 2, 3)), ((1, 2, 3), None)):
                    a = grid[t][index[(shortlist, low)]][0]
                    b = grid[t][index[(shortlist, high)]][0]
                    if a > b + EXACT_TOLERANCE:
                        self.problem(f"target {self.targets[t]}: dims {low} gave {a!r} > dims {high} gave {b!r}")
        self.notes["projected_duplicates"] = duplicates
        if duplicates == 0:
            self.problem("no projected duplicate in the grid: the zero check did not run")


class ServeElicitation(Workload):
    """Two closed-loop clients replaying elicitation sessions over HTTP.

    A round is one session of the repository's own generator,
    ``repro.data.elicitation.elicitation_session``, with its default mix:
    each step is one sharpening ``update_preference`` followed by two
    restricted queries (a quarter of them over all competitors, a quarter
    over all dimensions), which the two clients send concurrently, each
    waiting for its answer.  Two parts of the mix are assumed, not taken
    from the generator or any trace: every eighth query asks for Sam+, so
    that the sampler runs, and every round inserts a listing before its
    steps and removes it after them.
    """

    name = "serve_elicitation"
    blocks, per_block = 8, 10
    session_steps = 8
    sampled_every = 8
    sampled_options = {"method": "sam+", "epsilon": 0.02, "delta": 0.05}
    mc_samples = 200_000
    final_steps, final_sampled = 12, 4

    def generate(self) -> None:
        self.write_inputs(block_zipf(self.rng, self.blocks, self.per_block))
        # The session generator reads the files the program loads.
        self.session_dataset = repro.io.load_dataset(self.dataset_path)
        self.session_preferences = repro.io.load_preferences(self.preferences_path)
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.query_ms: List[float] = []
        self.edit_ms: List[float] = []
        self.queries = 0
        self.roundtrip_s = 0.0
        self.batch_size_sum = 0
        self.answers_checked = 0

    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        self.load()
        engine = repro.DynamicSkylineEngine(self.dataset, self.preferences)
        self.server = SkylineServer(engine, ServeConfig())
        await self.server.start()
        self.clients = [ServeClient("127.0.0.1", self.server.port) for _ in range(2)]
        for client in self.clients:
            await client.connect()

    def discard(self) -> None:
        self.loop.run_until_complete(self._shutdown())

    async def _shutdown(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.drain()

    def close(self) -> None:
        if self.server is not None:
            self.discard()
            self.server = None
        self.loop.close()

    # -- the session --------------------------------------------------------
    def _session(self, rng: np.random.Generator, steps: int) -> List[Tuple[dict, List[dict]]]:
        """``(edit, queries)`` per step of one generated elicitation session."""
        session = elicitation_session(self.session_dataset, self.session_preferences, rounds=steps, seed=rng)
        plan: List[Tuple[dict, List[dict]]] = []
        for step in session.steps:
            if step["op"] == "update_preference":
                edit = {"dimension": step["dimension"], "a": step["a"], "b": step["b"],
                        "prob_a_over_b": step["forward"], "prob_b_over_a": step["backward"]}
                plan.append((edit, []))
            else:
                plan[-1][1].append({
                    "index": step["target"],
                    "competitors": None if step["competitors"] is None else tuple(step["competitors"]),
                    "dims": None if step["dims"] is None else tuple(step["dims"]),
                })
        return plan

    async def _client_loop(self, client: ServeClient, plan: List[dict], answers: list) -> int:
        failed = 0
        for query in plan:
            started = time.perf_counter()
            try:
                response = await client.query(query["index"], **self._options(query))
            except (OSError, ReproError, asyncio.IncompleteReadError):
                response = None
            seconds = time.perf_counter() - started
            self.query_ms.append(seconds * 1e3)
            self.roundtrip_s += seconds
            self.queries += 1
            if response is None or response.status != 200:
                failed += 1
                continue
            data = response.data
            self.batch_size_sum += data["batch_size"]
            answers.append((query, data["probability"], data["exact"], data["samples"]))
        return failed

    @staticmethod
    def _options(query: dict) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in query.items() if k != "index" and v is not None}

    async def _edit(self, operation: str, **fields) -> bool:
        started = time.perf_counter()
        try:
            response = await self.clients[0].edit(operation, **fields)
        except (OSError, ReproError, asyncio.IncompleteReadError):
            response = None
        self.edit_ms.append((time.perf_counter() - started) * 1e3)
        return response is not None and response.status == 200

    def _listing(self, rng: np.random.Generator) -> Tuple[str, ...]:
        """A new object built from values already present in one block."""
        present = set(self.objects)
        while True:
            block = self.objects[int(rng.integers(len(self.objects)))][0][:4]
            mates = [row for row in self.objects if row[0][:4] == block]
            row = tuple(mates[int(rng.integers(len(mates)))][j] for j in range(len(mates[0])))
            if row not in present:
                return row

    def _check_answers(self, answers: list) -> None:
        """Harris bracket of every answer on the state it was served from."""
        for query, value, exact, samples in answers:
            sampled = "method" in query
            # Exact answers drew no sample; only Sam+ queries may be inexact.
            if (exact and samples) or not (exact or sampled):
                self.problem(f"query {query}: exact={exact} after {samples} samples")
            width = EXACT_TOLERANCE + (sampled_radius(samples) if sampled else 0.0)
            own, rows = oracle.materialize(self.objects, query["index"], query["competitors"], query["dims"])
            lower, upper = oracle.harris_bracket(self.prefs, own, rows)
            if not lower - width <= value <= upper + width:
                self.problem(f"query {query}: {value!r} outside [{lower!r}, {upper!r}]")
            self.answers_checked += 1

    def round(self):
        return self.loop.run_until_complete(self._round())

    async def _round(self):
        rng = np.random.default_rng([self.seed, 17, self.rounds])
        self.rounds += 1
        plan = self._session(rng, self.session_steps)
        for position, query in enumerate(q for _, queries in plan for q in queries):
            if position % self.sampled_every == self.sampled_every - 1:
                query.update(self.sampled_options, seed=int(rng.integers(1 << 31)))
        listing = self._listing(rng)
        attempted = failed = 0
        busy = 0.0

        started = time.perf_counter()
        attempted += 1
        if await self._edit("insert_object", values=list(listing)):
            self.objects.append(listing)
        else:
            failed += 1
        busy += time.perf_counter() - started
        for edit, queries in plan:
            started = time.perf_counter()
            attempted += 1 + len(queries)
            if await self._edit("update_preference", **edit):
                self.prefs.set(edit["dimension"], edit["a"], edit["b"], edit["prob_a_over_b"], edit["prob_b_over_a"])
            else:
                failed += 1
            answers: list = [[] for _ in self.clients]
            failures = await asyncio.gather(*(
                self._client_loop(client, [query], out) for client, query, out in zip(self.clients, queries, answers)
            ))
            failed += sum(failures)
            busy += time.perf_counter() - started
            self._check_answers([answer for out in answers for answer in out])
        started = time.perf_counter()
        attempted += 1
        if await self._edit("remove_object", target=list(listing)):
            self.objects.remove(listing)
        else:
            failed += 1
        busy += time.perf_counter() - started
        return attempted, failed, busy

    def trace_counts(self) -> Dict[str, float]:
        return {
            "serve.queries": self.queries,
            "serve.roundtrip_s": self.roundtrip_s,
            "serve.batch_size_sum": self.batch_size_sum,
        }

    def check(self) -> None:
        """Served answers on the final edited state equal the exact oracle."""
        self.loop.run_until_complete(self._final_check())
        self.notes["answers_bracketed"] = self.answers_checked
        self.notes["query_p50_ms"] = float(np.median(self.query_ms))
        if len(self.query_ms) >= 1000:  # at least ten samples beyond the 99th percentile
            self.notes["query_p99_ms"] = float(np.percentile(self.query_ms, 99))
        self.notes["edit_p50_ms"] = float(np.median(self.edit_ms))

    async def _final_check(self) -> None:
        rng = np.random.default_rng([self.seed, 19])
        mc_radius = oracle.hoeffding_radius(self.mc_samples, CHECK_DELTA)
        plan = [query for _, queries in self._session(rng, self.final_steps) for query in queries]
        plan += [{**query, **self.sampled_options, "seed": position} for position, query in enumerate(plan[: self.final_sampled])]
        for query in plan:
            response = await self.clients[0].query(query["index"], **self._options(query))
            if response.status != 200:
                self.problem(f"final query {query}: status {response.status}")
                continue
            value, samples = response.data["probability"], response.data["samples"]
            where = f"final query {query}"
            if "method" not in query:
                self.check_exact(where, value, query["index"], query["competitors"], query["dims"])
                continue
            radius = EXACT_TOLERANCE + sampled_radius(samples)
            own, rows = oracle.materialize(self.objects, query["index"], query["competitors"], query["dims"])
            exact = oracle.exact_sky(self.prefs, own, rows)
            estimate = oracle.monte_carlo_sky(self.prefs, own, rows, self.mc_samples, rng)
            if abs(value - exact) > radius:
                self.problem(f"{where}: Sam+ {value!r} is {abs(value - exact):.3g} from the exact {exact!r}")
            if abs(value - estimate) > radius + mc_radius:
                self.problem(f"{where}: Sam+ {value!r} vs Monte-Carlo {estimate!r}")
            self.notes["final_sampled_checked"] = self.notes.get("final_sampled_checked", 0) + 1

WORKLOADS = {cls.name: cls for cls in (AllSkyBlockZipf, RestrictedGrid, ServeElicitation)}
