"""The repo's benchmark: four workloads, end-to-end metrics, per-layer metrics.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repo root; ``BENCHMARK.json`` lists the workloads,
the metrics and their regression bounds.

* ``large-space`` — Count-Max and greedy k-center on the lazy metric tier.
* ``spill-space`` — many small Count-Max searches and greedy k-center on the
  disk tier (row store, spill files).
* ``noisy-dense`` — the paper's robust algorithms on the dense tier.
* ``crowd-serve`` — closed-loop sessions through the crowd service and the
  answer warehouse.

Left unmeasured on purpose:

* ``repro.incremental`` runs over the same ``oracles`` and ``metric`` calls
  the workloads already cover, and no open item targets it.
* ``repro.engine`` and ``repro.experiments`` fan out to process pools larger
  than a two-core machine, which would measure scheduling, not the code.
* Quadruplet serving above n ≈ 55k: the warehouse and the service fail there
  today (int64 key overflow, ``OverflowError``), and the benchmark only runs
  workloads on which no operation fails.
"""
