"""Plan shape of registered queries: per query, the all-to-all operators
(sorts, aggregates, repartitions) summed over every Ray Data execution it
runs, the executions themselves, its `Dataset.materialize()` calls, its row
count and the physical operators listed by the result's `Dataset.stats()`.
The result's own consuming execution is counted; its materialize is not.

Usage: PYTHONPATH=. python tools/plan_shape.py <sf_dir> name ...
Prints one JSON line per query.
"""

from __future__ import annotations

import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(sf_dir: str, names: list[str]) -> None:
    import ray
    import ray.data
    from ray.data._internal.execution import streaming_executor as se
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator,
    )

    import __ray_entry__ as entry

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    counts = dict.fromkeys(("all_to_all", "executions", "materialize"), 0)
    real_execute = se.StreamingExecutor.execute
    real_materialize = ray.data.Dataset.materialize

    def count_ops(op, seen: set) -> None:
        if id(op) not in seen:
            seen.add(id(op))
            counts["all_to_all"] += isinstance(op, AllToAllOperator)
            for dep in op.input_dependencies:
                count_ops(dep, seen)

    def execute(self, dag, *args, **kwargs):
        counts["executions"] += 1
        count_ops(dag, set())
        return real_execute(self, dag, *args, **kwargs)

    def materialize(self):
        counts["materialize"] += 1
        return real_materialize(self)

    se.StreamingExecutor.execute = execute
    ray.data.Dataset.materialize = materialize
    queries = entry.queries()
    for name in names:
        counts.update(dict.fromkeys(counts, 0))
        res = queries[name](sf_dir)
        ops = []
        if isinstance(res, ray.data.Dataset):
            res = real_materialize(res)
            ops = re.findall(r"Operator \d+ ([^:]+):", res.stats())
            rows = res.count()
        else:
            rows = res.num_rows
        print(json.dumps({"query": name, **counts, "rows": rows, "stats_ops": ops}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
