"""Figure 5 — trace-replay cache hit rates (Section VII).

(a) hit rate vs cache size {2k, 4k, 8k, 16k, 32k, ∞} for No-Privacy /
    Exponential / Uniform / Always-Delay at k = 5, ε = 0.005, 20% private.
(b) Exponential-Random-Cache with the private share swept over
    {5, 10, 20, 40}%.

Shape targets from the paper: every curve increases with cache size;
No-Privacy ≥ Exponential ≥ Uniform ≥ Always-Delay; hit rate decreases as
the private share grows.  Absolute percentages depend on the (synthetic)
trace's popularity skew — the default configuration lands in the paper's
10–50% band.

Both sweeps run through :func:`repro.perf.parallel.run_replay_sweep`
(fast-replay kernel, ``REPRO_WORKERS`` processes); their throughput is
the perf ledger's ``fig5_grid`` workload (``benchmarks/ledger``).
"""

from __future__ import annotations

from repro.analysis.experiments import run_fig5a, run_fig5b


def test_fig5a(benchmark, ircache_trace):
    result = benchmark.pedantic(
        run_fig5a, args=(ircache_trace,), rounds=1, iterations=1
    )
    print()
    print(result.render())
    schemes = ["no-privacy", "exponential", "uniform", "always-delay"]
    sizes = result.cache_sizes
    # One request's worth of hit rate (%): the two Random-Cache schemes
    # draw their k_C from different streams, so they may land a single
    # request apart either way; 0.001 at the default 100k requests.
    quantum = 100.0 / ircache_trace.n_requests + 1e-9
    for i in range(len(sizes)):
        rates = [result.hit_rates[s][i] for s in schemes]
        # The paper's ordering at every cache size.
        assert rates[0] > rates[1] >= rates[2] - quantum
        assert rates[2] >= rates[3] - 0.2
    for scheme in schemes:
        series = result.hit_rates[scheme]
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))
    # Paper's plotted band is roughly 10-50%.
    assert 5.0 < min(min(v) for v in result.hit_rates.values())
    assert max(max(v) for v in result.hit_rates.values()) < 60.0


def test_fig5b(benchmark, ircache_trace):
    result = benchmark.pedantic(
        run_fig5b, args=(ircache_trace,), rounds=1, iterations=1
    )
    print()
    print(result.render())
    labels = ["5% private", "10% private", "20% private", "40% private"]
    for i in range(len(result.cache_sizes)):
        rates = [result.hit_rates[label][i] for label in labels]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
    for label in labels:
        series = result.hit_rates[label]
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))
