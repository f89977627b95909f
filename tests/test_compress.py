import importlib
import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decnewton.compress import SPLIT_ENTRIES, CompressorSpec, compress, delta_bound, payload_bits
from decnewton.harness import build_mixing, build_problem, preset_configs
from decnewton.newton import init_state, step

compress_module = importlib.import_module("decnewton.compress")  # the package exports the function


def test_rank_k_full_rank_is_exact():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    out = compress(CompressorSpec("rank_k", d=6, K=6), A)
    assert np.max(np.abs(out - A)) <= 1e-12


def test_top_k_keeps_largest_two():
    A = np.array([[3.0, -1.0], [0.5, 2.0]])
    out = compress(CompressorSpec("top_k", d=2, K=2), A)
    assert np.array_equal(out, [[3.0, 0.0], [0.0, 2.0]])


def test_top_k_sorted_abs_oracle():
    # keep-K set must match a direct sort of |entries|
    rng = np.random.default_rng(1)
    for K in (1, 3, 7, 12):
        A = rng.standard_normal((4, 4))
        dense = compress(CompressorSpec("top_k", d=4, K=K), A)
        kept = np.flatnonzero(dense.ravel())
        order = np.argsort(-np.abs(A.ravel()), kind="stable")[:K]
        assert set(kept) == set(order)
        assert np.array_equal(dense.ravel()[kept], A.ravel()[kept])


def test_top_k_tie_break_lowest_linear_index():
    A = np.array([[1.0, -1.0], [1.0, 1.0]])
    dense = compress(CompressorSpec("top_k", d=2, K=2), A)
    assert np.array_equal(dense, [[1.0, -1.0], [0.0, 0.0]])


def _stable_argsort_top_k(A, K):
    """top_k as first written: a stable argsort on -|a| per matrix."""
    flat = A.reshape(*A.shape[:-2], -1)
    order = np.argsort(-np.abs(flat), axis=-1, kind="stable")[..., :K]
    out = np.zeros_like(flat)
    np.put_along_axis(out, order, np.take_along_axis(flat, order, axis=-1), axis=-1)
    return out.reshape(A.shape)


@pytest.mark.parametrize("K", [1, 7, 35, 36])  # d = 6: d^2 - 1 and d^2 too
def test_top_k_matches_stable_argsort_on_ties(K):
    rng = np.random.default_rng(K)
    stack = np.round(2.0 * rng.standard_normal((12, 6, 6)))  # few magnitudes, many ties
    stack[4:8] += np.swapaxes(stack[4:8], 1, 2)  # symmetric: off-diagonal magnitudes in pairs
    stack[8, 2] = stack[9, :, 3] = 0.0  # a zero row, a zero column
    stack[10] = 0.0  # every entry tied
    stack *= rng.choice([-1.0, 1.0], size=stack.shape)  # signed zeros
    for A in (stack, stack[5], stack[10]):
        out = compress(CompressorSpec("top_k", d=6, K=K), A)
        assert np.array_equal(out.view(np.uint64), _stable_argsort_top_k(A, K).view(np.uint64))


def test_rank_one_matrix_recovered_exactly():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)
    A = np.outer(u, v)
    dense = compress(CompressorSpec("rank_k", d=8, K=1), A)
    assert np.max(np.abs(dense - A)) <= 1e-10


def test_rank_k_error_equals_tail_singular_values():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((9, 9))
    s = np.linalg.svd(A, compute_uv=False)
    for K in (1, 4, 8):
        dense = compress(CompressorSpec("rank_k", d=9, K=K), A)
        err = np.linalg.norm(dense - A)
        assert err == pytest.approx(float(np.sqrt((s[K:] ** 2).sum())), rel=1e-10)


def test_delta_bounds():
    assert delta_bound(CompressorSpec("rank_k", d=30, K=3)) == pytest.approx(0.05)
    assert delta_bound(CompressorSpec("top_k", d=20, K=20)) == pytest.approx(0.025)
    assert delta_bound(CompressorSpec("identity", d=20)) == 1.0


def test_payload_bits():
    assert payload_bits(CompressorSpec("top_k", d=20, K=20)) == 20 * (64 + 9) == 1460
    assert payload_bits(CompressorSpec("rank_k", d=20, K=3)) == 3 * 41 * 64 == 7872
    assert payload_bits(CompressorSpec("identity", d=20)) == 25600


def test_identity_passthrough():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 5))
    out = compress(CompressorSpec("identity", d=5), A)
    assert np.array_equal(out, A)
    assert out is not A


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 12))
    for spec in (CompressorSpec("rank_k", d=12, K=4), CompressorSpec("top_k", d=12, K=9)):
        first = compress(spec, A)
        second = compress(spec, A.copy())
        assert np.array_equal(first, second)


def test_top_k_idempotent():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((7, 7))
    spec = CompressorSpec("top_k", d=7, K=11)
    once = compress(spec, A)
    twice = compress(spec, once)
    assert np.array_equal(once, twice)


def test_zero_maps_to_zero():
    for spec in (
        CompressorSpec("rank_k", d=5, K=2),
        CompressorSpec("top_k", d=5, K=4),
        CompressorSpec("identity", d=5),
    ):
        assert np.array_equal(compress(spec, np.zeros((5, 5))), np.zeros((5, 5)))


def test_payload_invariants():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((10, 10))
    dense_r = compress(CompressorSpec("rank_k", d=10, K=3), A)
    assert np.linalg.matrix_rank(dense_r, tol=1e-9) <= 3
    dense_t = compress(CompressorSpec("top_k", d=10, K=5), A)
    assert np.count_nonzero(dense_t) <= 5


def compression_error_tails(A):
    """Error norms ||Q(A) - A||_F for every K at once, index K-1, computed
    from sorted singular values / entries (valid for exact truncation)."""
    s = np.linalg.svd(A, compute_uv=False)
    rank_tail = np.sqrt(np.concatenate([np.cumsum((s**2)[::-1])[::-1][1:], [0.0]]))
    sq = np.sort(A.ravel() ** 2)  # ascending
    top_tail = np.sqrt(np.concatenate([np.cumsum(sq)[::-1][1:], [0.0]]))
    return rank_tail, top_tail


@pytest.mark.parametrize("d", [5, 20, 30])
def test_contraction_bound_sweep(d):
    # ||Q(A) - A||_F <= (1 - delta) ||A||_F over random matrices, all K
    rng = np.random.default_rng(d)
    mats = rng.standard_normal((40, d, d))
    for A in mats:
        norm = np.linalg.norm(A)
        rank_tail, top_tail = compression_error_tails(A)
        for K in range(1, d + 1):
            delta = delta_bound(CompressorSpec("rank_k", d=d, K=K))
            assert rank_tail[K - 1] <= (1 - delta) * norm + 1e-9
        for K in range(1, d * d + 1):
            delta = delta_bound(CompressorSpec("top_k", d=d, K=K))
            assert top_tail[K - 1] <= (1 - delta) * norm + 1e-9
    # the tail identities above describe the actual operators: spot-check
    A = mats[0]
    rank_tail, top_tail = compression_error_tails(A)
    for K in (1, d // 2 + 1, d):
        err = np.linalg.norm(compress(CompressorSpec("rank_k", d=d, K=K), A) - A)
        assert err == pytest.approx(rank_tail[K - 1], abs=1e-9)
    for K in (1, d * d // 2, d * d):
        err = np.linalg.norm(compress(CompressorSpec("top_k", d=d, K=K), A) - A)
        assert err == pytest.approx(top_tail[K - 1], abs=1e-9)


@pytest.mark.parametrize("kind,K", [("rank_k", 1), ("rank_k", 4), ("rank_k", 7),
                                    ("top_k", 1), ("top_k", 10), ("top_k", 49),
                                    ("identity", 0)])
def test_stack_matches_per_matrix_bit_for_bit(kind, K):
    rng = np.random.default_rng(5)
    spec = CompressorSpec(kind, d=7, K=K)
    stack = rng.standard_normal((6, 7, 7))
    stack[1] = np.round(stack[1])  # tied magnitudes for top_k
    stack[2] = 0.0
    stack[3] = np.outer(rng.standard_normal(7), rng.standard_normal(7))
    out = compress(spec, stack)
    assert out.shape == stack.shape
    per_matrix = np.stack([compress(spec, A) for A in stack])
    assert np.array_equal(out, per_matrix)


@st.composite
def compressor_inputs(draw):
    kind = draw(st.sampled_from(["rank_k", "top_k"]))
    d = draw(st.integers(1, 12))
    K = draw(st.integers(1, d if kind == "rank_k" else d * d))
    n = draw(st.sampled_from([None, 1, 2, 5]))  # None: a single matrix
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((d, d) if n is None else (n, d, d))
    if draw(st.booleans()):
        A = np.round(A * draw(st.sampled_from([1.0, 3.0])))  # ties and zero entries
    return CompressorSpec(kind, d=d, K=K), draw(st.sampled_from([1e-8, 1.0, 1e8])) * A


@settings(max_examples=80, deadline=None)
@given(compressor_inputs())
def test_contraction_property(case):
    spec, A = case
    out = compress(spec, A)
    assert out.shape == A.shape
    bound = 1.0 - delta_bound(spec)
    for Ai, Qi in zip(A.reshape(-1, spec.d, spec.d), out.reshape(-1, spec.d, spec.d)):
        assert np.linalg.norm(Qi - Ai) <= bound * np.linalg.norm(Ai) * (1 + 1e-12)
        if A.ndim == 3:
            assert np.array_equal(Qi, compress(spec, Ai))


def test_spec_validation():
    with pytest.raises(ValueError):
        CompressorSpec("rank_k", d=5, K=6)
    with pytest.raises(ValueError):
        CompressorSpec("top_k", d=5, K=26)
    with pytest.raises(ValueError):
        CompressorSpec("svd", d=5, K=1)
    # a float d ran, and wrote bits_cum as a float that read_trace_csv rejects
    with pytest.raises(ValueError, match=r"compressor d must be an integer >= 1, got 6.0"):
        CompressorSpec("rank_k", d=6.0, K=2)
    with pytest.raises(ValueError, match=r"compressor d must be an integer >= 1, got True"):
        CompressorSpec("rank_k", d=True, K=1)
    with pytest.raises(ValueError):
        compress(CompressorSpec("rank_k", d=5, K=2), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        compress(CompressorSpec("rank_k", d=5, K=2), np.zeros((3, 5, 4)))
    with pytest.raises(ValueError):
        compress(CompressorSpec("top_k", d=5, K=2), np.zeros((2, 3, 5, 5)))


@pytest.mark.parametrize("kind,K", [("rank_k", 2.5), ("rank_k", True), ("top_k", 2.0),
                                    ("top_k", False), ("identity", 0.0)])
def test_spec_count_must_be_an_int(kind, K):
    # rank_k(2.5) failed only in compress, and K=True ran as K = 1
    with pytest.raises(ValueError, match=r"compressor K must be an integer"):
        CompressorSpec(kind, 4, K)


@pytest.mark.parametrize("kind,K", [("rank_k", 2), ("top_k", 4), ("identity", 0)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stacked", [False, True])
def test_non_finite_input_rejected(kind, K, bad, stacked):
    # rejected before any LAPACK call, which need not return on an inf;
    # top_k would otherwise rank a NaN last and drop it
    spec = CompressorSpec(kind, d=3, K=K)
    A = np.ones((4, 3, 3) if stacked else (3, 3))
    A[(2, 1, 0) if stacked else (1, 0)] = bad
    with pytest.raises(ValueError, match=f"{kind} compression got a non-finite entry"):
        compress(spec, A)


def svd_truncation(A, K):
    """Rank-K truncation of the full SVD: the oracle for the Gram-matrix
    kernel (a sign fix of the singular vectors leaves the product unchanged)."""
    U, s, Vt = np.linalg.svd(A)
    return (U[..., :K] * s[..., None, :K]) @ Vt[..., :K, :]


def assert_matches_svd_truncation(A, K, scale=1.0):
    """compress(rank_k) of scale * A, divided by scale, is within 1e-12 ||A_i||_F
    of the SVD truncation of A, matrix by matrix."""
    d = A.shape[-1]
    out = compress(CompressorSpec("rank_k", d=d, K=K), scale * A) / scale
    gap = np.abs(out - svd_truncation(A, K)).max(axis=(-2, -1))
    assert np.all(gap <= 1e-12 * np.linalg.norm(A, axis=(-2, -1)))


def spectrum_matrices(spectrum, shape, rng):
    G = rng.standard_normal(shape)
    if spectrum == "gaussian":
        return G
    if spectrum == "symmetric":
        return G + np.swapaxes(G, -1, -2)
    # singular values decaying geometrically from 1 to 1e-12
    U = np.linalg.qr(G)[0]
    V = np.linalg.qr(rng.standard_normal(shape))[0]
    return (U * np.geomspace(1.0, 1e-12, shape[-1])) @ np.swapaxes(V, -1, -2)


@pytest.mark.parametrize("spectrum", ["gaussian", "symmetric", "geometric"])
@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
def test_rank_k_matches_svd_truncation(spectrum, scale):
    # the extreme scales guard the power-of-two scaling: without it the Gram
    # matrix underflows at 1e-160 and overflows to NaN at 1e160
    rng = np.random.default_rng(11)
    d = 10
    for shape in ((d, d), (5, d, d)):
        A = spectrum_matrices(spectrum, shape, rng)
        for K in (1, 3, d):
            assert_matches_svd_truncation(A, K, scale)


@pytest.mark.parametrize("preset,label", [("quad-kappa", "quad-k1e4-m15"),
                                          ("logit-rank", "logit-rank-m15")])
def test_rank_k_matches_svd_truncation_on_tracker_stacks(preset, label):
    # the two stacks newton.step compresses, over the first 15 iterations
    config = next(c for c in preset_configs(preset) if c.label == label)
    problem = build_problem(config.problem)
    W = build_mixing(config.graph, problem.n)
    params = config.algorithm
    state = init_state(problem, np.zeros((problem.n, problem.d)))
    for k in range(15):
        diff = state.H - state.H_tilde
        for A in (diff, state.E + diff):
            assert_matches_svd_truncation(A, params.compressor.K)
        state, _ = step(state, problem, W, params, k)


# ---------------------------------------------------------------------------
# a rank_k stack of at least SPLIT_ENTRIES entries is split over two threads when two CPUs are usable


def rank_k_stack(n, d, seed=0):
    """A stack with a zero matrix, a rank-one one and tiny and huge scales next to Gaussian ones."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((n, d, d))
    stack[0] = 0.0
    stack[-1] = np.outer(rng.standard_normal(d), rng.standard_normal(d))
    stack[1::3] *= 1e-150
    stack[2::3] *= 1e150
    return stack


def record_rank_k_calls(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable; returns the list of stack lengths each ``_rank_k`` call gets."""
    monkeypatch.setattr(compress_module, "_usable_cpus", lambda: cpus)
    lengths, rank_k = [], compress_module._rank_k
    monkeypatch.setattr(compress_module, "_rank_k", lambda A, *args: lengths.append(len(A)) or rank_k(A, *args))
    return lengths


@pytest.mark.parametrize("n,d", [(3, 30), (39, 10), (2, 40),  # below SPLIT_ENTRIES
                                 (5, 30), (20, 30), (40, 10), (41, 10), (60, 20), (3, 40),
                                 (1, 70)])  # one matrix has no halves
def test_rank_k_split_matches_one_call_bit_for_bit(monkeypatch, n, d):
    # (20, 30, 30) and (60, 20, 20) are the packet stacks of quad-kappa and logit-rank
    spec, stack = CompressorSpec("rank_k", d=d, K=3), rank_k_stack(n, d)
    lengths = record_rank_k_calls(monkeypatch, cpus=1)
    inline = compress(spec, stack)
    assert lengths == [n]
    lengths.clear()
    record_rank_k_calls(monkeypatch, cpus=2)
    split = compress(spec, stack)
    assert sorted(lengths) == ([n // 2, n - n // 2] if stack.size >= SPLIT_ENTRIES and n > 1 else [n])
    assert np.array_equal(split.view(np.uint64), inline.view(np.uint64))


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_split_raises_what_either_half_raises(monkeypatch, failing):
    spec, stack = CompressorSpec("rank_k", d=30, K=3), rank_k_stack(21, 30)  # halves of 10 and 11
    expected = compress(spec, stack)
    monkeypatch.setattr(compress_module, "_usable_cpus", lambda: 2)
    rank_k = compress_module._rank_k

    def fail_one_half(A, *args):
        if len(A) == {"caller": 10, "worker": 11}[failing]:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return rank_k(A, *args)

    monkeypatch.setattr(compress_module, "_rank_k", fail_one_half)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        compress(spec, stack)
    monkeypatch.setattr(compress_module, "_rank_k", rank_k)
    assert np.array_equal(compress(spec, stack), expected)  # the worker is free again


def test_split_halves_share_the_callers_errstate(monkeypatch):
    # numpy keeps errstate in a context variable, which a new thread would not see
    monkeypatch.setattr(compress_module, "_usable_cpus", lambda: 2)
    seen, rank_k = [], compress_module._rank_k
    monkeypatch.setattr(compress_module, "_rank_k", lambda A, *args: seen.append(np.geterr()) or rank_k(A, *args))
    with np.errstate(over="raise", under="ignore"):
        compress(CompressorSpec("rank_k", d=30, K=3), rank_k_stack(20, 30))
    assert [(err["over"], err["under"]) for err in seen] == [("raise", "ignore")] * 2  # two halves


def _compress_in_child(spec, stack, expected, lengths):
    out = compress(spec, stack)
    if lengths != [10] * 4 or not np.array_equal(out, expected):  # the child split its call too
        raise SystemExit(1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
def test_fork_child_starts_its_own_worker(monkeypatch):
    # a child forked after the parent's worker started has no thread behind the copied
    # worker; handing it a half would wait forever
    lengths = record_rank_k_calls(monkeypatch, cpus=2)
    spec, stack = CompressorSpec("rank_k", d=30, K=3), rank_k_stack(20, 30)
    expected = compress(spec, stack)
    assert lengths == [10, 10]
    child = multiprocessing.get_context("fork").Process(target=_compress_in_child,
                                                        args=(spec, stack, expected, lengths))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("kind,K,shape", [("rank_k", 3, (3, 30, 30)), ("rank_k", 2, (39, 10, 10)),
                                          ("top_k", 9, (20, 30, 30)), ("top_k", 7, (60, 20, 20)),
                                          ("identity", 0, (60, 20, 20))])
def test_unsplit_stacks_start_no_thread(monkeypatch, kind, K, shape):
    # only a rank_k stack of at least SPLIT_ENTRIES entries is worth the hand-off
    monkeypatch.setattr(compress_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(compress_module, "_WORKERS", {})  # a split would have to start one
    before = threading.active_count()
    compress(CompressorSpec(kind, d=shape[-1], K=K), rank_k_stack(shape[0], shape[-1]))
    assert threading.active_count() == before
