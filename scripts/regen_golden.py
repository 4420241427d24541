"""Regenerate or check the seeded-output golden corpus.

The corpus, ``tests/golden/seeded_outputs.json``, pins what seeded runs of the
public algorithms *return*, not merely that two code paths agree with each
other.  Each entry runs one algorithm at one seed on a 200-point 4-d Gaussian
cloud (dense metric tier) and records:

* ``digest`` — sha256 of the output: the winning record; the sorted centres
  plus the point-to-centre assignment; or the dendrogram's
  ``to_linkage_matrix()``;
* ``charged_queries``, ``total_queries`` and ``cached_queries`` of the
  counter the algorithm ran against.

The stored entries run the same algorithm through a cold and then a warm
:class:`~repro.store.oracle.StoredQuadrupletOracle` (the warm run reopens the
cold run's store directory with a fresh crowd) and through a
:class:`~repro.service.core.CrowdOracleService` over a cold store.

Usage, from the repository root::

    PYTHONPATH=src python scripts/regen_golden.py               # check
    PYTHONPATH=src python scripts/regen_golden.py --rebaseline  # rewrite

A check prints every entry that changed and exits 1; it never writes.  Only
``--rebaseline`` overwrites an existing corpus.  The corpus records the numpy
version it was generated under, because seeded draws are only guaranteed
stable within one numpy release; under another version the check fails with
that message instead of a diff.  A PR that rebaselines lists the changed
entries and the reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

CORPUS_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "seeded_outputs.json"

SEEDS = (0, 1)
N_POINTS = 200
DIMENSION = 4
P_NOISE = 0.1
MU_NOISE = 0.1
K = 4
MIN_CLUSTER_SIZE = 20
LINKAGE_POINTS = 40
VIEW_QUERY = 0  # count_max / max_* search the distance-from-record-0 view
NEIGHBOR_QUERY = 3  # farthest_* / nearest_* search from record 3

Entry = Dict[str, object]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _clustering_payload(result) -> dict:
    return {
        "centers": sorted(int(c) for c in result.centers),
        "assignment": sorted((int(p), int(c)) for p, c in result.assignment.items()),
    }


def _entry(output, counter) -> Entry:
    return {
        "digest": _digest(output),
        "charged_queries": int(counter.charged_queries),
        "total_queries": int(counter.total_queries),
        "cached_queries": int(counter.cached_queries),
    }


def _space(seed: int):
    from repro.metric.space import PointCloudSpace

    points = np.random.default_rng(seed).standard_normal((N_POINTS, DIMENSION))
    return PointCloudSpace(points, backend="dense")


def _probabilistic(seed: int):
    from repro.oracles.noise import ProbabilisticNoise

    return ProbabilisticNoise(p=P_NOISE, seed=seed)


def _adversarial(seed: int):
    from repro.oracles.noise import AdversarialNoise

    return AdversarialNoise(mu=MU_NOISE)


# -- the algorithms ------------------------------------------------------------
# Each runner takes a quadruplet oracle and the seed and returns the JSON
# payload the digest is taken of.


def _view_items():
    return [i for i in range(N_POINTS) if i != VIEW_QUERY]


def run_count_max(oracle, seed: int):
    from repro.maximum.count_max import count_max
    from repro.oracles.base import distance_comparison_view

    view = distance_comparison_view(oracle, VIEW_QUERY)
    return int(count_max(_view_items(), view, seed=seed))


def run_max_probabilistic(oracle, seed: int):
    from repro.maximum.probabilistic import max_probabilistic
    from repro.oracles.base import distance_comparison_view

    view = distance_comparison_view(oracle, VIEW_QUERY)
    return int(max_probabilistic(_view_items(), view, seed=seed))


def run_max_adversarial(oracle, seed: int):
    from repro.maximum.adversarial import max_adversarial
    from repro.oracles.base import distance_comparison_view

    view = distance_comparison_view(oracle, VIEW_QUERY)
    return int(max_adversarial(_view_items(), view, seed=seed))


def run_farthest_probabilistic(oracle, seed: int):
    from repro.neighbors.farthest import farthest_probabilistic

    return int(farthest_probabilistic(oracle, NEIGHBOR_QUERY, seed=seed))


def run_nearest_probabilistic(oracle, seed: int):
    from repro.neighbors.nearest import nearest_probabilistic

    return int(nearest_probabilistic(oracle, NEIGHBOR_QUERY, seed=seed))


def run_farthest_adversarial(oracle, seed: int):
    from repro.neighbors.farthest import farthest_adversarial

    return int(farthest_adversarial(oracle, NEIGHBOR_QUERY, seed=seed))


def run_kcenter_probabilistic(oracle, seed: int):
    from repro.kcenter.probabilistic import kcenter_probabilistic

    result = kcenter_probabilistic(oracle, k=K, min_cluster_size=MIN_CLUSTER_SIZE, seed=seed)
    return _clustering_payload(result)


def run_kcenter_adversarial(oracle, seed: int):
    from repro.kcenter.adversarial import kcenter_adversarial

    return _clustering_payload(kcenter_adversarial(oracle, k=K, seed=seed))


def run_noisy_linkage(oracle, seed: int):
    from repro.hierarchical.noisy_linkage import noisy_linkage

    dendrogram = noisy_linkage(
        oracle, "single", points=list(range(LINKAGE_POINTS)), space=oracle.space, seed=seed
    )
    return dendrogram.to_linkage_matrix().tolist()


#: ``name -> (noise factory, runner)`` for the direct dense-tier entries.
DIRECT: Dict[str, Tuple[Callable, Callable]] = {
    "count_max/probabilistic": (_probabilistic, run_count_max),
    "max_probabilistic/probabilistic": (_probabilistic, run_max_probabilistic),
    "farthest_probabilistic/probabilistic": (_probabilistic, run_farthest_probabilistic),
    "nearest_probabilistic/probabilistic": (_probabilistic, run_nearest_probabilistic),
    "kcenter_probabilistic/probabilistic": (_probabilistic, run_kcenter_probabilistic),
    "noisy_linkage_single/probabilistic": (_probabilistic, run_noisy_linkage),
    "max_adversarial/adversarial": (_adversarial, run_max_adversarial),
    "farthest_adversarial/adversarial": (_adversarial, run_farthest_adversarial),
    "kcenter_adversarial/adversarial": (_adversarial, run_kcenter_adversarial),
}

#: ``name -> (noise factory, runner)`` for the warehouse and service entries.
STORED: Dict[str, Tuple[Callable, Callable]] = {
    "count_max/probabilistic": (_probabilistic, run_count_max),
    "kcenter_adversarial/adversarial": (_adversarial, run_kcenter_adversarial),
}

#: The serving paths each ``STORED`` algorithm runs through, in order.
PHASES = ("cold", "warm", "service")


def _key(name: str, path: str, seed: int) -> str:
    """The corpus key of one algorithm on one serving path at one seed."""
    return f"{name}/{path}/seed{seed}"


def entry_names() -> List[str]:
    """Every corpus key, in generation order."""
    names = []
    for seed in SEEDS:
        names += [_key(name, "dense", seed) for name in DIRECT]
        names += [_key(name, phase, seed) for name in STORED for phase in PHASES]
    return names


def _crowd(noise_factory: Callable, seed: int):
    from repro.oracles.counting import QueryCounter
    from repro.oracles.quadruplet import DistanceQuadrupletOracle

    return DistanceQuadrupletOracle(
        _space(seed), noise=noise_factory(seed), counter=QueryCounter()
    )


def _direct_entry(noise_factory: Callable, runner: Callable, seed: int) -> Entry:
    oracle = _crowd(noise_factory, seed)
    return _entry(runner(oracle, seed), oracle.counter)


def _stored_entries(noise_factory: Callable, runner: Callable, seed: int, workdir: Path):
    """Cold store, the same store reopened warm, and the service over a cold store."""
    from repro.service.adapter import ServiceQuadrupletAdapter, ServiceRuntime
    from repro.service.core import CrowdOracleService, ServiceConfig
    from repro.store.oracle import StoredQuadrupletOracle
    from repro.store.warehouse import AnswerStore

    entries: Dict[str, Entry] = {}
    for phase in ("cold", "warm"):
        with AnswerStore(workdir / "store") as store:
            stored = StoredQuadrupletOracle(_crowd(noise_factory, seed), store)
            entries[phase] = _entry(runner(stored, seed), stored.counter)
    with AnswerStore(workdir / "service-store") as store:
        service = CrowdOracleService(
            quadruplet=_crowd(noise_factory, seed),
            config=ServiceConfig(batch_window=0.0),
            store=store,
        )
        with ServiceRuntime(service) as runtime:
            adapter = ServiceQuadrupletAdapter(runtime, service.open_session())
            entries["service"] = _entry(runner(adapter, seed), adapter.counter)
    return entries


def compute_corpus() -> Dict[str, Entry]:
    """Run every corpus entry and return ``name -> entry``."""
    corpus: Dict[str, Entry] = {}
    for seed in SEEDS:
        for name, (noise_factory, runner) in DIRECT.items():
            corpus[_key(name, "dense", seed)] = _direct_entry(noise_factory, runner, seed)
        for name, (noise_factory, runner) in STORED.items():
            with tempfile.TemporaryDirectory(prefix="repro-golden-") as workdir:
                entries = _stored_entries(noise_factory, runner, seed, Path(workdir))
            for phase, entry in entries.items():
                corpus[_key(name, phase, seed)] = entry
    return corpus


def load_corpus(path: Path = CORPUS_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def numpy_mismatch(recorded: dict) -> Optional[str]:
    """The failure message when the corpus was made under another numpy."""
    if recorded.get("numpy") == np.__version__:
        return None
    return (
        f"the golden corpus was generated under numpy {recorded.get('numpy')}, "
        f"but numpy {np.__version__} is installed; seeded draws are only pinned "
        "within one numpy release, so regenerate it with "
        "`PYTHONPATH=src python scripts/regen_golden.py --rebaseline` and list "
        "the changed entries in CHANGES.md"
    )


def changed_entries(recorded: Dict[str, Entry], fresh: Dict[str, Entry]) -> List[str]:
    """Human-readable lines, one per added, removed or changed entry."""
    lines = []
    for key in sorted(set(recorded) | set(fresh)):
        old, new = recorded.get(key), fresh.get(key)
        if old == new:
            continue
        if old is None:
            lines.append(f"added   {key}")
        elif new is None:
            lines.append(f"removed {key}")
        else:
            fields = sorted(f for f in set(old) | set(new) if old.get(f) != new.get(f))
            detail = ", ".join(f"{f}: {old.get(f)} -> {new.get(f)}" for f in fields)
            lines.append(f"changed {key} ({detail})")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="overwrite the committed corpus with the fresh results",
    )
    parser.add_argument("--out", type=Path, default=CORPUS_PATH, help="corpus path")
    args = parser.parse_args(argv)

    fresh = compute_corpus()
    if args.out.exists():
        recorded = load_corpus(args.out)
        mismatch = numpy_mismatch(recorded)
        if mismatch is not None and not args.rebaseline:
            print(f"error: {mismatch}", file=sys.stderr)
            return 1
        lines = changed_entries(recorded.get("entries", {}), fresh)
        for line in lines:
            print(line)
        if not lines and mismatch is None:
            print(f"golden corpus unchanged ({len(fresh)} entries)")
            return 0
        if not args.rebaseline:
            print(
                f"error: {len(lines)} entr{'y' if len(lines) == 1 else 'ies'} changed; "
                "the corpus was not rewritten (pass --rebaseline to overwrite it)",
                file=sys.stderr,
            )
            return 1
    payload = {
        "numpy": np.__version__,
        "generator": "scripts/regen_golden.py",
        "entries": fresh,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fresh)} entries to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
