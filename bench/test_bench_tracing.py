"""Self-test of the tracer: it sees calls made inside cogram, counts what the
per-layer metrics count, and puts every function back.

    PYTHONPATH=src python -m pytest -q bench
"""

import numpy as np

import tracing
from cogram import baseline, merge, net as netmod
from cogram.synthdata import Dataset


def test_tracer_counts_a_merge_and_restores_the_modules():
    a, b = netmod.random_network([4, 5, 3], 1), netmod.random_network([4, 5, 3], 2)
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(30, 4)), np.arange(30) % 3, 3)
    config = merge.MergeConfig(
        thresholds=merge.Thresholds.uniform(0.0, 0.0), max_granularity="neuron"
    )
    originals = (netmod.forward, merge.cogram_iterate, merge.train)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert netmod.forward is not originals[0]
        assert merge.train is not originals[2]  # bound by name in another module
        with tracer.root(tracing.ROOT_COMMAND):
            merge.cogram_iterate(baseline.uniform_average(a, b), a, b, config, data=data)
    assert (netmod.forward, merge.cogram_iterate, merge.train) == originals

    m = tracing.layer_metrics(tracer, commands_per_round=1)
    layers, neurons = m["merge.decisions.layer"], m["merge.decisions.neuron"]
    assert layers == 2 and neurons == 5 + 3
    # two candidates per layer, pre + two candidates + post per neuron, before + after
    assert m["merge.loss_evals"] == 2 * layers + 4 * neurons + 2
    assert m["net.forward_rows"] == 3 * m["net.forward_calls"]  # one prototype per class
    assert m["prototypes.eval_rows"] == 3
    assert 0 < m["merge.self_s"] < m["merge.cogram_s"]
    assert 0 <= m["merge.kept_ratio"] <= 1
