"""The repository benchmark: end-to-end metrics and an outside-in layer trace.

Run ``python3 perfbench/run.py --workload stream|bulk|mixed|all`` from the
repository root; see ``perfbench/README.md`` for the workloads, the metric
table and the layer map.
"""
