import itertools

import numpy as np

import synth
from heartbn import core, inference


def test_cpts_strictly_positive_and_parent_bound():
    net = synth.random_network(np.random.default_rng(0), 30)
    assert all(len(net.dag.parents(n)) <= 2 for n in net.dag.nodes)
    assert all(2 <= net.variable(n).cardinality <= 4 for n in net.dag.nodes)
    assert all((cpt.table > 0).all() for cpt in net.cpts.values())


def test_same_seed_same_inputs():
    a = synth.sample(synth.random_network(np.random.default_rng(5), 12), 50, np.random.default_rng(6))
    b = synth.sample(synth.random_network(np.random.default_rng(5), 12), 50, np.random.default_rng(6))
    assert np.array_equal(a.rows, b.rows)


def test_sampler_marginals_match_exact_inference():
    rng = np.random.default_rng(11)
    net = synth.random_network(rng, 12)
    n = 100_000
    data = synth.sample(net, n, rng)
    for name in net.dag.nodes:
        exact = inference.posterior_ve(net, name, {}).probabilities
        empirical = np.bincount(data.column(name), minlength=len(exact)) / n
        sigma = np.sqrt(exact * (1 - exact) / n)
        assert np.all(np.abs(empirical - exact) <= 5 * sigma), name


def test_reference_posterior_matches_enumeration():
    rng = np.random.default_rng(3)
    net = synth.random_network(rng, 7, cards=(2, 3))
    rows = synth.sample(net, 20, rng).rows
    nodes = net.dag.nodes
    for i in range(15):
        q = nodes[i % len(nodes)]
        evidence = {nodes[j]: int(rows[i][j]) for j in range(len(nodes)) if nodes[j] != q and (i + j) % 3 == 0}
        enum = inference.posterior_enumeration(net, q, evidence).probabilities
        assert np.max(np.abs(synth.reference_posterior(net, q, evidence) - enum)) <= 1e-12


def test_moral_graph_d_separation_matches_library():
    net = synth.random_network(np.random.default_rng(4), 9)
    nodes = net.dag.nodes
    for x, y in itertools.combinations(nodes, 2):
        for z in ((), tuple(n for n in nodes[:3] if n not in (x, y))):
            assert synth.d_separated_moral(net.dag, {x}, {y}, set(z)) == core.d_separated(net.dag, {x}, {y}, set(z))


def test_shd_counts_missing_extra_and_reversed_edges():
    truth = core.build_dag("abcd", [("a", "b"), ("b", "c")])
    assert synth.shd(truth, truth) == 0
    assert synth.shd(core.build_dag("abcd", [("b", "a"), ("b", "c")]), truth) == 1
    assert synth.shd(core.build_dag("abcd", [("a", "b"), ("c", "d")]), truth) == 2
    assert synth.edge_digest(truth) == synth.edge_digest(core.build_dag("abcd", [("b", "c"), ("a", "b")]))
