import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import QUAD
from decnewton.graph import (
    _connected,
    _random_spanning_tree,
    consensus_apply,
    generate_topology,
    load_matrix,
    metropolis_weights,
    save_matrix,
    second_singular_value,
)


def adjacency(n, edges):
    """The 0/1 adjacency matrix of the edge list ``edges`` on ``n`` nodes."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    return A


def edge_set(A):
    """The edges (i, j), i < j, of the adjacency matrix ``A``."""
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(A)))}


def bfs_connected(n, edges):
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def test_edge_count_tau_02():
    # 0.2 * 10 * 9 / 2 = 9 edges
    A = generate_topology(10, 0.2, seed=3)
    assert len(edge_set(A)) == 9


def test_tau_one_gives_complete_graph():
    A = generate_topology(10, 1.0, seed=3)
    assert len(edge_set(A)) == 45
    assert np.array_equal(A, 1.0 - np.eye(10))


def test_connectivity_bfs_oracle():
    assert bfs_connected(30, edge_set(generate_topology(30, 0.2, seed=7)))


@pytest.mark.parametrize("n,tau,seed", [(5, 0.5, 0), (12, 0.3, 4), (25, 0.15, 9)])
def test_generated_topologies_connected_and_sized(n, tau, seed):
    A = generate_topology(n, tau, seed)
    assert A.shape == (n, n) and np.array_equal(A, A.T) and set(np.unique(A)) == {0.0, 1.0}
    assert bfs_connected(n, edge_set(A))
    assert len(edge_set(A)) == round(tau * n * (n - 1) / 2)
    assert not A.diagonal().any()


def test_topology_reproducible():
    a = generate_topology(20, 0.25, seed=42)
    b = generate_topology(20, 0.25, seed=42)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n,tau,seed", [(10, 0.2, 11), (30, 0.2, 12), (300, 0.02, 5),
                                        (1000, 0.005, 1)])
def test_extra_edges_match_list_pool(n, tau, seed):
    # oracle: the extra edges drawn from a Python list of every non-tree pair
    rng = np.random.default_rng(seed)
    edges = set(_random_spanning_tree(n, rng))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    picks = rng.choice(len(pool), size=int(round(tau * n * (n - 1) / 2)) - len(edges),
                       replace=False)
    edges.update(pool[idx] for idx in sorted(picks))
    assert np.array_equal(generate_topology(n, tau, seed), adjacency(n, edges))


def test_topology_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_topology(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_topology(10, 0.01, seed=0)  # 0 edges < n-1
    with pytest.raises(ValueError):
        generate_topology(10, 1.5, seed=0)


def test_metropolis_two_node_path():
    mix = metropolis_weights(generate_topology(2, 1.0, seed=0))
    assert np.allclose(mix.W, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    assert mix.sigma == pytest.approx(0.0, abs=1e-12)


def test_metropolis_three_node_complete():
    mix = metropolis_weights(generate_topology(3, 1.0, seed=0))
    assert np.allclose(mix.W, np.full((3, 3), 1 / 3), atol=1e-15)
    assert mix.sigma == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,tau,seed", [(10, 0.2, 11), (15, 0.4, 2), (30, 0.2, 12)])
def test_mixing_matrix_properties(n, tau, seed):
    A = generate_topology(n, tau, seed)
    edges = edge_set(A)
    mix = metropolis_weights(A)
    W = mix.W
    assert np.all(W >= 0)
    assert np.allclose(W, W.T, atol=1e-15)
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12
    # support matches the topology exactly (plus self-loops)
    for i in range(n):
        for j in range(n):
            has_edge = (min(i, j), max(i, j)) in edges
            if i == j:
                assert W[i, j] > 0
            elif has_edge:
                assert W[i, j] > 0
            else:
                assert W[i, j] == 0
    assert 0 <= mix.sigma < 1


def _per_edge_metropolis(n, edges):
    """The earlier per-edge Metropolis loop: the bit-for-bit oracle for W."""
    deg = np.zeros(n, dtype=int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    W = np.zeros((n, n))
    for i, j in edges:
        W[i, j] = W[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


@pytest.mark.parametrize("n,tau", [(2, 1.0), (10, 0.2), (30, 0.2), (50, 1.0), (300, 0.02)])
def test_metropolis_matches_per_edge_oracle(n, tau):
    for seed in range(20):
        A = generate_topology(n, tau, seed)
        assert np.array_equal(metropolis_weights(A).W, _per_edge_metropolis(n, edge_set(A)))


@pytest.mark.parametrize("edges", [(), ((0, 1), (2, 3))], ids=["no-edges", "two-components"])
def test_metropolis_rejects_disconnected(edges):
    A = adjacency(4 if edges else 3, edges)
    assert A.sum() == 2 * len(edges)
    assert not _connected(A)
    with pytest.raises(ValueError, match="must be of a connected graph"):
        metropolis_weights(A)


PATH3 = adjacency(3, [(0, 1), (1, 2)])


def _with(A, *entries):
    """A copy of ``A`` with each (i, j, value) of ``entries`` written in."""
    A = A.copy()
    for i, j, value in entries:
        A[i, j] = value
    return A


@pytest.mark.parametrize("A,rule", [
    (_with(PATH3, (1, 1, 1.0)), "zero on the diagonal"),
    (np.pad(PATH3, ((0, 0), (0, 1)), constant_values=1.0), "square"),  # a fourth node's column
    (_with(PATH3, (0, 2, -1.0), (2, 0, -1.0)), "0/1"),
    (_with(PATH3, (0, 2, 1.0)), "symmetric"),
    (_with(PATH3, (0, 1, 2.0), (1, 0, 2.0)), "0/1"),
    (_with(PATH3, (0, 1, 0.5), (1, 0, 0.5)), "0/1"),
    (_with(PATH3, (0, 1, np.nan), (1, 0, np.nan)), "0/1"),
    (np.ones(3), "square"),
    (np.zeros((0, 0)), "square"),
], ids=["self-loop", "past-n", "negative", "asymmetric", "weight-2", "weight-half", "nan",
        "one-dim", "empty"])
def test_metropolis_rejects_malformed_edges(A, rule):
    # each input breaks one rule of an adjacency matrix, which the error names;
    # a per-edge loop and the matrix formula would weigh these differently
    with pytest.raises(ValueError, match=f"adjacency matrix must be {rule}$"):
        metropolis_weights(A)


def test_is_connected_matches_bfs_oracle():
    # random edge subsets of complete graphs, connected and not
    rng = np.random.default_rng(17)
    outcomes = set()
    for _ in range(200):
        n = int(rng.integers(1, 16))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < rng.uniform(0.0, 0.6)
        edges = [p for p, k in zip(pairs, keep) if k]
        connected = _connected(adjacency(n, edges))
        assert connected == bfs_connected(n, edges)
        outcomes.add(connected)
    assert outcomes == {True, False}


def test_second_singular_value_of_averaging_matrix():
    n = 6
    assert second_singular_value(np.full((n, n), 1 / n)) == pytest.approx(0.0, abs=1e-12)


def test_second_singular_value_of_identity_flags_disconnection():
    assert second_singular_value(np.eye(7)) == pytest.approx(1.0, abs=1e-12)


def test_consensus_accepts_block_lists(quad_graph):
    mix = quad_graph
    rng = np.random.default_rng(7)
    blocks = [rng.standard_normal((3, 3)) for _ in range(mix.n)]
    out = consensus_apply(mix, 2, blocks)
    assert out.shape == (mix.n, 3, 3)
    assert np.allclose(out, consensus_apply(mix, 2, np.stack(blocks)), atol=0)


def test_second_singular_value_matches_power_iteration_oracle(quad_graph):
    mix = quad_graph
    # independent power-iteration oracle on (W - Winf)^T (W - Winf)
    n = mix.n
    B = mix.W - np.full((n, n), 1 / n)
    S = B.T @ B
    rng = np.random.default_rng(123)
    v = rng.standard_normal(n)
    for _ in range(2000):
        w = S @ v
        v = w / np.linalg.norm(w)
    oracle = float(np.sqrt(v @ S @ v))
    assert mix.sigma == pytest.approx(oracle, abs=1e-10)


def test_consensus_fixed_point(quad_graph):
    mix = quad_graph
    blocks = np.tile(np.arange(4.0), (mix.n, 1))
    out = consensus_apply(mix, 5, blocks)
    assert np.allclose(out, blocks, atol=1e-12)


def test_consensus_preserves_average(quad_graph):
    mix = quad_graph
    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((mix.n, 7))
    out = consensus_apply(mix, 3, blocks)
    assert np.max(np.abs(out.mean(axis=0) - blocks.mean(axis=0))) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 5, 15])
def test_consensus_contraction_factor(quad_graph, m):
    mix = quad_graph
    rng = np.random.default_rng(m)
    for _ in range(50):
        blocks = rng.standard_normal((mix.n, 6))
        dev_in = np.linalg.norm(blocks - blocks.mean(axis=0))
        out = consensus_apply(mix, m, blocks)
        dev_out = np.linalg.norm(out - out.mean(axis=0))
        assert dev_out <= mix.sigma ** m * dev_in + 1e-10


def test_consensus_contraction_property_bulk():
    # 1000 random stacked inputs across a few topologies and m values
    rng = np.random.default_rng(5)
    for seed, m in ((0, 1), (1, 2), (2, 4), (3, 8)):
        mix = metropolis_weights(generate_topology(8, 0.4, seed=seed))
        blocks = rng.standard_normal((250, mix.n, 3))
        for b in blocks:
            dev_in = np.linalg.norm(b - b.mean(axis=0))
            out = consensus_apply(mix, m, b)
            dev_out = np.linalg.norm(out - out.mean(axis=0))
            assert dev_out <= mix.sigma ** m * dev_in + 1e-10


def _tensordot_consensus(W, m, blocks):
    """The earlier consensus_apply, np.tensordot and two means: the bit-for-bit oracle."""
    if isinstance(blocks, list):
        blocks = np.stack(blocks)
    out = np.tensordot(W.power(m), blocks, axes=(1, 0))
    out += blocks.mean(axis=0) - out.mean(axis=0)
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), tau=st.floats(0.3, 1.0), graph_seed=st.integers(0, 2**16),
       m=st.integers(1, 4), layout=st.sampled_from(["vectors", "matrices", "list"]),
       d=st.integers(1, 8), scale=st.sampled_from([1e-6, 1.0, 1e6]),
       data_seed=st.integers(0, 2**16))
def test_consensus_matches_tensordot_and_keeps_average(n, tau, graph_seed, m, layout, d,
                                                       scale, data_seed):
    mix = metropolis_weights(generate_topology(n, max(tau, 2.0 / n), seed=graph_seed))
    rng = np.random.default_rng(data_seed)
    shape = (n, d) if layout == "vectors" else (n, d, d)
    blocks = scale * rng.standard_normal(shape)
    if layout == "list":
        blocks = list(blocks)
    out = consensus_apply(mix, m, blocks)
    oracle = _tensordot_consensus(mix, m, blocks)
    assert out.shape == oracle.shape == shape
    assert np.array_equal(out, oracle)
    stacked = np.asarray(blocks)
    drift = np.max(np.abs(out.mean(axis=0) - stacked.mean(axis=0)))
    assert drift <= 1e-14 * np.max(np.abs(stacked))


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (2, 1)])
def test_consensus_scalar_and_empty_blocks(quad_graph, shape):
    mix = quad_graph
    blocks = np.random.default_rng(1).standard_normal((mix.n, *shape))
    out = consensus_apply(mix, 2, blocks)
    assert out.shape == blocks.shape
    assert np.array_equal(out, _tensordot_consensus(mix, 2, blocks))


def test_consensus_rejects_mismatched_blocks(quad_graph):
    mix = quad_graph
    blocks = [np.zeros(3)] * (mix.n - 1) + [np.zeros(4)]
    with pytest.raises(ValueError):
        consensus_apply(mix, 1, blocks)
    with pytest.raises(ValueError):
        consensus_apply(mix, 0, np.zeros((mix.n, 3)))
    with pytest.raises(ValueError):
        consensus_apply(mix, 2, np.zeros((mix.n + 1, 3)))


def test_matrix_round_trip(tmp_path, quad_graph):
    mix = quad_graph
    A = generate_topology(QUAD.problem.n, QUAD.graph.tau, QUAD.graph.seed)
    path = tmp_path / "w.txt"
    save_matrix(path, mix.W)
    loaded = load_matrix(path)
    assert np.array_equal(loaded, mix.W)
    path2 = tmp_path / "adj.txt"
    save_matrix(path2, A)
    assert np.array_equal(load_matrix(path2), A)


def test_sigma_exact_above_200_nodes():
    # a sparse graph well past the old 200-node switch to power iteration,
    # which underestimated sigma here by about 9e-5
    mix = metropolis_weights(generate_topology(500, 0.005, seed=1))
    B = mix.W - np.full((500, 500), 1 / 500)
    assert mix.sigma == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(B))), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 500), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
@example(n=500, density=0.0, seed=3)  # a spanning tree: sigma closest to 1
@example(n=500, density=1.0, seed=4)  # the complete graph: sigma 0
def test_sigma_matches_eigvalsh_on_random_graphs(n, density, seed):
    # tau from a spanning tree's share of the pairs (2/n) up to the complete graph
    tau = min(1.0, 2.0 / n + density * (1.0 - 2.0 / n))
    mix = metropolis_weights(generate_topology(n, tau, seed=seed))
    B = mix.W - np.full((n, n), 1.0 / n)
    assert mix.sigma == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(B))), abs=1e-12)


def _held_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _held_arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _held_arrays(v)


def test_power_cache_holds_one_power():
    # m = k consensus asks for a new power every iteration; the cache must
    # not keep all of them
    mix = metropolis_weights(generate_topology(10, 0.2, seed=11))
    for k in range(2, 51):
        assert np.array_equal(mix.power(k), np.linalg.matrix_power(mix.W, k))
    powers = [a for a in _held_arrays(vars(mix)) if a is not mix.W]
    assert len(powers) <= 1
