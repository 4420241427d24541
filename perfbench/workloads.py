"""The four benchmark workloads: inputs from a seed, a fixed job, output checks.

Every workload calls the library's public API with default settings; the
program receives only generated inputs and algorithm seeds derived from the
workload seed.  A workload is driven by :mod:`perfbench.run` in four steps:

* ``prepare()`` makes the inputs (untimed; crowd-serve also writes its
  warehouse here);
* ``setup()`` builds what the job runs on — timed as ``setup_s``;
* ``solve(state)`` runs the fixed job — timed as ``solve_s``;
* ``check(state, raw)`` re-checks the outputs independently (untimed) and
  returns an :class:`Outcome`.

``tamper`` (tests only) is applied to every oracle a workload builds, so a
sabotaged oracle can prove that the checks catch wrong answers.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import hierarchical, kcenter, maximum, metric, neighbors, oracles, store
from repro.service import CrowdOracleService
from repro.store.keys import quadruplet_codes

#: Dimension of every generated point cloud.
DIM = 8

#: Persistent error rate of the probabilistic noise models.
NOISE_P = 0.1

#: Confusion band of the adversarial noise model.
NOISE_MU = 0.1

#: A Count-Max winner ranked below this many farther sample records fails
#: its check (the paper's bound is a rank of O(log n) with high probability).
COUNT_MAX_MAX_RANK = 32


@dataclass
class Outcome:
    """What one run of a workload's job produced, after checking."""

    latencies: List[float] = field(default_factory=list)
    queries: int = 0
    charged: int = 0
    ratios: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Serving wall time when it differs from the whole job's (crowd-serve).
    serve_wall: Optional[float] = None

    def expect(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _dist_to(points: np.ndarray, idx, anchor: int) -> np.ndarray:
    diff = points[idx] - points[anchor]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def greedy_reference(points: np.ndarray, k: int, first: int) -> float:
    """Noise-free farthest-point k-center objective, computed with numpy alone."""
    best = _dist_to(points, slice(None), first)
    for _ in range(k - 1):
        best = np.minimum(best, _dist_to(points, slice(None), int(np.argmax(best))))
    return float(best.max())


def _check_clustering(out: Outcome, points: np.ndarray, result, k: int) -> float:
    """Structural checks of a k-center result; returns its true objective."""
    n = len(points)
    centers = [int(c) for c in result.centers]
    assigned = np.fromiter(result.assignment.keys(), dtype=np.int64, count=len(result.assignment))
    to = np.fromiter(result.assignment.values(), dtype=np.int64, count=len(result.assignment))
    out.expect(len(centers) == k and len(set(centers)) == k)
    complete = len(assigned) == n and np.array_equal(np.sort(assigned), np.arange(n))
    out.expect(bool(complete) and bool(np.isin(to, centers).all()))
    diff = points[assigned] - points[to]
    return float(np.sqrt(np.sum(diff * diff, axis=-1)).max())


class Workload:
    """Base class; subclasses fill in the four steps."""

    name = ""
    scales: Dict[str, dict] = {}
    #: Which run of the job comes next; the runner sets it before each run.
    rep = 0

    def __init__(self, seed: int, scale: str, workdir: Path, tamper: Optional[Callable] = None):
        self.seed = int(seed)
        self.p = dict(self.scales[scale])
        self.workdir = Path(workdir)
        self.tamper = tamper or (lambda oracle: oracle)

    def prepare(self) -> None:
        pass

    def before_setup(self) -> None:
        """Untimed work each setup needs first (crowd-serve copies its warehouse)."""

    def setup(self):
        raise NotImplementedError

    def solve(self, state):
        raise NotImplementedError

    def check(self, state, raw) -> Outcome:
        raise NotImplementedError

    def spaces(self, state) -> list:
        return []

    def layer_stats(self, state) -> Dict[str, float]:
        """Counters read from the program's public stats after a traced run."""
        names = {
            "metric.blocks_materialized": "materialized_blocks",
            "metric.spill_reloads": "reloads",
            "metric.spill_bytes": "spill_bytes",
        }
        backends = [space.backend_stats() for space in self.spaces(state)]
        return {ours: sum(b.get(theirs, 0) for b in backends) for ours, theirs in names.items()}

    def teardown(self, state) -> None:
        """Release what ``setup`` built (dropping the references suffices here)."""


class CloudWorkload(Workload):
    """Count-Max "farthest from q" plus greedy k-center on a uniform cloud."""

    def prepare(self) -> None:
        p = self.p
        rng = _rng(self.seed, 1)
        n = p["n"]
        self.points = rng.uniform(0.0, 1.0, size=(n, DIM))
        # The first records of the (random) cloud are the query records.  On
        # the disk tier this keeps every "distance from q" pair's first index
        # constant, the shape its row store serves; a query record with a
        # higher index than some sample record bypasses the row store and
        # spills gigabytes of blocks instead.
        self.query_records = list(range(p["queries"]))
        self.sample = sorted(
            int(s) for s in p["queries"] + rng.choice(n - p["queries"], p["sample"], replace=False)
        )
        self.noise_seed, self.count_seed, *self.kcenter_seeds = (
            int(s) for s in rng.integers(0, 2**31, size=2 + p["kcenters"])
        )

    def setup(self):
        space = metric.PointCloudSpace(self.points)
        oracle = self.tamper(
            oracles.DistanceQuadrupletOracle(
                space, noise=oracles.ProbabilisticNoise(p=NOISE_P, seed=self.noise_seed)
            )
        )
        return space, oracle

    def spaces(self, state) -> list:
        return [state[0]]

    def solve(self, state):
        space, oracle = state
        latencies, winners = [], []
        for q in self.query_records:
            start = time.perf_counter()
            view = oracles.distance_comparison_view(oracle, q)
            winners.append(maximum.count_max(self.sample, view, seed=self.count_seed))
            latencies.append(time.perf_counter() - start)
        clusterings = []
        for seed in self.kcenter_seeds:
            start = time.perf_counter()
            result = kcenter.greedy_kcenter_exact(space, k=self.p["k"], seed=seed)
            clusterings.append((result, kcenter.kcenter_objective(space, result)))
            latencies.append(time.perf_counter() - start)
        return latencies, winners, clusterings

    def check(self, state, raw) -> Outcome:
        _, oracle = state
        latencies, winners, clusterings = raw
        pts = self.points
        out = Outcome(
            latencies=latencies,
            queries=oracle.counter.total_queries,
            charged=oracle.counter.charged_queries,
        )
        sample = np.asarray(self.sample)
        for q, winner in zip(self.query_records, winners):
            dist = _dist_to(pts, sample, q)
            won = float(_dist_to(pts, [winner], q)[0])
            out.expect(winner in set(self.sample) and int((dist > won).sum()) < COUNT_MAX_MAX_RANK)
            out.ratios.append(float(dist.max()) / won)
        for result, objective in clusterings:
            true_objective = _check_clustering(out, pts, result, self.p["k"])
            out.expect(bool(np.isclose(objective, true_objective, rtol=1e-9, atol=0.0)))
            reference = greedy_reference(pts, self.p["k"], int(result.centers[0]))
            out.ratios.append(true_objective / reference)
            out.expect(true_objective <= reference * (1 + 1e-9))
        return out


class LargeSpace(CloudWorkload):
    name = "large-space"
    scales = {
        "full": {"n": 100_000, "sample": 1024, "queries": 2, "k": 16, "kcenters": 1},
        "tiny": {"n": 400, "sample": 64, "queries": 1, "k": 4, "kcenters": 1},
    }


class SpillSpace(CloudWorkload):
    name = "spill-space"
    # One Count-Max search and three k-center runs, so the k-center tasks
    # (served from disk-tier rows) set both the median and the slowest task.
    # Count-Max here is bound by the oracle's Python-int answer keys, whose
    # time swings by up to a half with load from other processes on the
    # host; large-space measures that path.
    scales = {
        "full": {"n": 400_000, "sample": 1024, "queries": 1, "k": 16, "kcenters": 3},
        "tiny": {"n": 400, "sample": 64, "queries": 1, "k": 4, "kcenters": 2},
    }


class NoisyDense(Workload):
    """The paper's robust algorithms on a seeded Gaussian-blob cloud (dense tier)."""

    name = "noisy-dense"
    # Four farthest and four nearest searches put like tasks in the middle of
    # the task latencies.  At n = 1000 a job takes about 6 s, so a run times
    # it at least twice; at n = 2000 one seed's k-center took a fifth longer
    # than another's, and a run timed the job once.
    scales = {
        "full": {"n": 1_000, "blobs": 8, "k": 8, "min_cluster": 100, "neighbour_queries": 4,
                 "linkage_n": 100},
        "tiny": {"n": 160, "blobs": 4, "k": 4, "min_cluster": 10, "neighbour_queries": 1,
                 "linkage_n": 20},
    }

    def prepare(self) -> None:
        p = self.p
        rng = _rng(self.seed, 2)
        n, blobs = p["n"], p["blobs"]
        # Blob centres are rows of a random rotation scaled by 10, so every
        # pair of blobs is equally far apart and every seed equally hard.
        rotation = np.linalg.qr(rng.normal(size=(DIM, DIM)))[0]
        centers = 10.0 * rotation[:blobs]
        labels = np.arange(n) % blobs
        self.points = centers[labels] + rng.normal(0.0, 0.5, size=(n, DIM))
        nq = p["neighbour_queries"]
        picks = rng.choice(n, size=2 * nq + p["linkage_n"], replace=False)
        self.far_queries = [int(x) for x in picks[:nq]]
        self.near_queries = [int(x) for x in picks[nq : 2 * nq]]
        self.linkage_points = [int(x) for x in picks[2 * nq :]]
        self.noise_seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]

    def setup(self):
        s = self.noise_seeds
        space = metric.PointCloudSpace(self.points)

        def oracle(noise):
            return self.tamper(oracles.DistanceQuadrupletOracle(space, noise=noise))

        return space, {
            "prob": oracle(oracles.ProbabilisticNoise(p=NOISE_P, seed=s[0])),
            "adv": oracle(oracles.AdversarialNoise(mu=NOISE_MU)),
            "nn": oracle(oracles.ProbabilisticNoise(p=NOISE_P, seed=s[1])),
            "link": oracle(oracles.ProbabilisticNoise(p=NOISE_P, seed=s[2])),
        }

    def spaces(self, state) -> list:
        return [state[0]]

    def solve(self, state):
        _, orc = state
        p = self.p
        # Each run of the job draws its own algorithm seeds, so a run's median
        # spans several random paths: k-center's time moves by a tenth with
        # its seed.  Runs with the same index use the same seeds.
        s = [int(x) for x in _rng(self.seed, 100 + self.rep).integers(0, 2**31, size=5)]
        tasks = {
            "kprob": lambda: kcenter.kcenter_probabilistic(
                orc["prob"], k=p["k"], min_cluster_size=p["min_cluster"], seed=s[0]
            ),
            "kadv": lambda: kcenter.kcenter_adversarial(orc["adv"], k=p["k"], seed=s[1]),
            "link": lambda: hierarchical.noisy_linkage(
                orc["link"], "single", points=self.linkage_points, seed=s[4]
            ),
        }
        for q in self.far_queries:
            tasks[("far", q)] = functools.partial(
                neighbors.farthest_probabilistic, orc["nn"], q, seed=s[2]
            )
        for q in self.near_queries:
            tasks[("near", q)] = functools.partial(
                neighbors.nearest_probabilistic, orc["nn"], q, seed=s[3]
            )
        latencies, results = [], {}
        for key, task in tasks.items():
            start = time.perf_counter()
            results[key] = task()
            latencies.append(time.perf_counter() - start)
        return latencies, results

    def check(self, state, raw) -> Outcome:
        _, orc = state
        latencies, res = raw
        pts, n, k = self.points, self.p["n"], self.p["k"]
        out = Outcome(latencies=latencies)
        for oracle in orc.values():
            out.queries += oracle.counter.total_queries
            out.charged += oracle.counter.charged_queries
        reference = greedy_reference(pts, k, 0)
        for key in ("kprob", "kadv"):
            out.ratios.append(_check_clustering(out, pts, res[key], k) / reference)
        for q in self.far_queries:
            found = int(res[("far", q)])
            out.expect(0 <= found < n and found != q)
            dist = _dist_to(pts, slice(None), q)
            out.ratios.append(float(dist.max() / dist[found]))
        # Nearest answers are checked for validity only: the nearest distance
        # is tiny next to its neighbours', so their ratio swings with the
        # input and would swamp every other task in the worst-case ratio.
        for q in self.near_queries:
            found = int(res[("near", q)])
            out.expect(0 <= found < n and found != q)
        dendrogram = res["link"]
        leaves = len(self.linkage_points)
        out.expect(dendrogram.n_leaves == leaves and dendrogram.n_merges == leaves - 1)
        return out


class CrowdServe(Workload):
    """Closed-loop sessions served by the crowd service over a warm warehouse.

    Each session is an algorithm run: per search it sends one round-sized
    batch (Count-Max over ``cands`` records, all pairs at once) and then one
    single quadruplet per ``scan`` record (a running-max scan), each request
    waiting for its answer before the next.  The warehouse is pre-written with
    the answers to about half of the keys the sessions will ask, plus filler
    votes, so serving both reads and appends.
    """

    name = "crowd-serve"
    scales = {
        "full": {"n": 4_000, "sessions": 32, "searches": 64, "cands": 12, "scan": 3,
                 "votes": 1_000_000},
        "tiny": {"n": 200, "sessions": 2, "searches": 3, "cands": 6, "scan": 2, "votes": 2_000},
    }

    def prepare(self) -> None:
        p = self.p
        rng = _rng(self.seed, 3)
        n = p["n"]
        self.points = rng.uniform(0.0, 1.0, size=(n, DIM))
        self.noise_seed = int(rng.integers(0, 2**31))
        per_search = 1 + p["cands"] + p["scan"]
        self.plans = []
        for _ in range(p["sessions"]):
            plan = []
            for _ in range(p["searches"]):
                rec = rng.choice(n, size=per_search, replace=False)
                plan.append((int(rec[0]), rec[1 : 1 + p["cands"]], rec[1 + p["cands"] :]))
            self.plans.append(plan)
        # Reference: every session run against a direct, storeless oracle.
        direct = self._direct_oracle(metric.PointCloudSpace(self.points))
        self.reference = [self._run_sync(plan, direct) for plan in self.plans]
        self.base_dir = self.workdir / f"{self.name}-store"
        self._write_warehouse(direct, rng)

    def _direct_oracle(self, space):
        noise = oracles.HashedProbabilisticNoise(p=NOISE_P, seed=self.noise_seed)
        return oracles.DistanceQuadrupletOracle(space, noise=noise)

    def _write_warehouse(self, direct, rng) -> None:
        """Hot half of the session keys plus filler votes, written once, untimed."""
        n = self.p["n"]
        asked = np.unique(np.concatenate([
            quadruplet_codes(*(np.asarray(x, dtype=np.int64) for x in request), n)[0]
            for log in self.reference for request, _ in log[0]
        ]))
        mixed = (asked.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
        hot = asked[(mixed & np.uint64(1)) == 0]
        m = max(0, self.p["votes"] - len(hot))
        # Twice the draws needed: trivial, repeated and session keys are dropped.
        quads = rng.integers(0, n, size=(4, 2 * m + 16))
        filler = quadruplet_codes(*quads, n)
        filler_codes = np.unique(filler[0][~filler[2]])
        filler_codes = filler_codes[~np.isin(filler_codes, asked)]
        filler_codes = rng.permutation(filler_codes)[:m]
        codes = np.concatenate([hot, filler_codes])
        shutil.rmtree(self.base_dir, ignore_errors=True)
        warehouse = store.AnswerStore(self.base_dir)
        store.StoredQuadrupletOracle(direct, warehouse)  # pins the record count
        for lo in range(0, len(codes), 1 << 16):
            chunk = codes[lo : lo + (1 << 16)]
            r2, rest = chunk % n, chunk // n
            r1, rest = rest % n, rest // n
            l2, l1 = rest % n, rest // n
            warehouse.add_votes(chunk, direct.compare_batch(l1, l2, r1, r2))
        warehouse.close()

    @staticmethod
    def _search(plan):
        """One session's algorithm: yields requests, receives their answers."""
        results = []
        for q, cands, scan in plan:
            a, b = np.triu_indices(len(cands), k=1)
            qs = np.full(len(a), q, dtype=np.int64)
            answers = yield (qs, cands[a], qs, cands[b])
            # Count-Max: "d(q, x) <= d(q, y)" is a point for y.
            scores = np.bincount(np.where(answers, b, a), minlength=len(cands))
            best = int(cands[int(np.argmax(scores))])
            for c in scan:
                answer = yield ([q], [best], [q], [int(c)])
                if answer[0]:
                    best = int(c)
            results.append(best)
        return results

    def _run_sync(self, plan, oracle):
        log, gen = [], self._search(plan)
        request = next(gen)
        try:
            while True:
                answers = oracle.compare_batch(*request)
                log.append((request, answers))
                request = gen.send(answers)
        except StopIteration as stop:
            return log, stop.value

    def before_setup(self) -> None:
        self.rep_dir = self.workdir / f"{self.name}-rep"
        shutil.rmtree(self.rep_dir, ignore_errors=True)
        shutil.copytree(self.base_dir, self.rep_dir)

    def setup(self):
        space = metric.PointCloudSpace(self.points)
        backend = self.tamper(self._direct_oracle(space))
        warehouse = store.AnswerStore(self.rep_dir)
        service = CrowdOracleService(quadruplet=backend, store=warehouse)
        loop = asyncio.new_event_loop()
        loop.run_until_complete(service.start())
        return {"space": space, "store": warehouse, "service": service, "loop": loop}

    def spaces(self, state) -> list:
        return [state["space"]]

    def solve(self, state):
        service = state["service"]

        async def session_run(plan):
            session = service.open_session()
            gen, log, lat = self._search(plan), [], []
            request = next(gen)
            try:
                while True:
                    start = time.perf_counter()
                    answers = await session.quadruplet_batch(*request)
                    lat.append(time.perf_counter() - start)
                    log.append(answers)
                    request = gen.send(answers)
            except StopIteration as stop:
                return log, stop.value, lat, session.counter

        async def serve():
            start = time.perf_counter()
            runs = await asyncio.gather(*(session_run(plan) for plan in self.plans))
            wall = time.perf_counter() - start
            await service.stop()
            return runs, wall

        return state["loop"].run_until_complete(serve())

    def check(self, state, raw) -> Outcome:
        runs, wall = raw
        out = Outcome(serve_wall=wall)
        for (log, results, lat, counter), (ref_log, ref_results), plan in zip(
            runs, self.reference, self.plans
        ):
            out.latencies.extend(lat)
            out.queries += counter.total_queries
            out.charged += counter.charged_queries
            for got, (_, want) in zip(log, ref_log):
                out.expect(bool(np.array_equal(got, want)))
            out.expect(len(log) == len(ref_log) and results == ref_results)
            # A session is one algorithm run; its quality is its searches' mean.
            ratios = [
                _dist_to(self.points, np.concatenate([cands, scan]), q).max()
                / _dist_to(self.points, [found], q)[0]
                for (q, cands, scan), found in zip(plan, results)
            ]
            out.ratios.append(float(np.mean(ratios)))
        return out

    def layer_stats(self, state) -> Dict[str, float]:
        # Shard append and fsync counters start at zero when the store opens.
        stats = super().layer_stats(state)
        now = state["store"].stats()
        stats["store.fsyncs"] = now["n_fsyncs"]
        stats["store.appends"] = now["n_appends"]
        stats["store.bytes_per_vote"] = now["disk_bytes"] / max(1, now["n_votes"])
        return stats

    def teardown(self, state) -> None:
        state["loop"].run_until_complete(state["service"].stop())
        state["store"].close()
        state["loop"].close()
        state.clear()
        gc.collect()
        shutil.rmtree(self.rep_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (LargeSpace, SpillSpace, NoisyDense, CrowdServe)}
