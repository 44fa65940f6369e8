"""Host-normalized, layer-attributed end-to-end benchmark of ``repro``.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/README.md`` for the workloads, the metrics and why they were
chosen.
"""
