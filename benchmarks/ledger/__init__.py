"""The perf ledger: five named workloads, one command, one result shape.

``BENCHMARK.json`` at the repository root declares the workloads and the
metrics; this package measures them **from outside** — by timing calls
into the public functions of ``repro`` — and checks that what a run
emits is exactly what the file declares.  See ``README.md`` here.
"""
