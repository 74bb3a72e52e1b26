import copy
import math
import pickle

import numpy as np
import pytest

import arlif.attention
from arlif.attention import (
    EPS,
    WORKSPACE_LIMIT,
    AttentionParams,
    _live,
    _skips_row_max,
    backward,
    bce_loss,
    forward,
    init_params,
    param_count,
    sgd_step,
    workspace,
)
from arlif.detector import attention_params_bytes
from arlif.errors import ArlifError, BufferTooLarge, DimensionMismatch, StaleCache
from grad_check import fd_grads, grad_errors
from reference import attention_gradient, attention_readout, softmax_rows


def rand_params(k, seed):
    """Dense random parameters, centered so probability histories stay unclamped."""
    rng = np.random.default_rng(seed)
    p = AttentionParams(np.zeros(param_count(k)), k)
    p.Wq = rng.normal(0, 0.3, (k, k))
    p.Wk = rng.normal(0, 0.3, (k, k))
    p.Wv = np.eye(k) + rng.normal(0, 0.1, (k, k))
    p.bq = rng.normal(0, 0.1, k)
    p.bk = rng.normal(0, 0.1, k)
    p.bv = rng.normal(0, 0.05, k)
    return p


def wide(p, bias=5.0):
    """A copy of p with bias added to every bq and bk entry. The default lifts
    its bound on the logits past LOGIT_LIMIT, so forward shifts each row by its
    max, while the logits themselves stay moderate."""
    q = AttentionParams(p.flat.copy(), p.k)
    q.bq += bias
    q.bk += bias
    return q


def skips_row_max(p, T):
    return _skips_row_max(p.flat, p.k, T)


def weights(cache):
    """The attention weights: forward keeps them unnormalized, as E and its row sums."""
    return cache.E / cache.den[..., None]


def shifted(p, bv_shift):
    """A copy of p with every bv entry moved by bv_shift."""
    q = AttentionParams(p.flat.copy(), p.k)
    q.bv += bv_shift
    return q


# --- parameter count / init ----------------------------------------------------

def test_param_count_values():
    assert param_count(1) == 6
    assert param_count(4) == 60
    assert param_count(10) == 330
    for k in range(1, 33):
        assert param_count(k) == 3 * k * (k + 1)


def test_param_count_rejects_bad_k():
    for k in (0, -1, -7):
        with pytest.raises(ValueError):
            param_count(k)


def test_init_params_structure():
    p = init_params(5, seed=3)
    assert p.k == 5
    assert np.array_equal(p.Wv, np.eye(5))
    assert np.all(p.bq == 0) and np.all(p.bk == 0) and np.all(p.bv == 0)
    assert np.all(np.abs(p.Wq) <= 0.01) and np.all(np.abs(p.Wk) <= 0.01)
    assert p.flat.size == param_count(5)


def test_init_params_scale_zero_is_exactly_zero():
    p = init_params(4, seed=0, scale=0.0)
    assert np.all(p.Wq == 0.0) and np.all(p.Wk == 0.0)


def test_init_params_deterministic():
    a = init_params(6, seed=42)
    b = init_params(6, seed=42)
    c = init_params(6, seed=43)
    assert np.array_equal(a.flat, b.flat)
    assert not np.array_equal(a.Wq, c.Wq)


def test_init_params_guards():
    with pytest.raises(ValueError):
        init_params(0, seed=0)
    with pytest.raises(ValueError):
        init_params(3, seed=0, scale=-0.1)


# --- the parameter vector ------------------------------------------------------

def test_params_bytes_are_the_blocks_in_file_order():
    p = rand_params(4, seed=21)
    expected = b"".join(np.asarray(getattr(p, name), dtype="<f8").tobytes()
                        for name in ("Wq", "Wk", "Wv", "bq", "bk", "bv"))
    assert attention_params_bytes(p) == expected
    assert len(set(p.flat.tolist())) == param_count(4)  # distinct: a misplaced block shows


def test_assigning_a_block_writes_the_vector():
    p = rand_params(3, seed=22)
    X = np.arange(9.0).reshape(3, 3) + 0.5
    p.Wq = X
    assert np.array_equal(p.flat[:9], X.ravel())
    assert attention_params_bytes(p)[:72] == X.astype("<f8").tobytes()
    p.bv[-1] = 7.25  # a view of a block writes through too
    assert p.flat[-1] == 7.25


def test_deepcopy_keeps_blocks_and_vector_in_step():
    p = rand_params(3, seed=23)
    before = p.Wq.copy()
    q = copy.deepcopy(p)
    g = AttentionParams(np.ones(param_count(3)), 3)
    sgd_step(q, g, 1.0)
    assert np.array_equal(q.Wq, before - 1.0)
    assert np.array_equal(p.Wq, before)
    r = pickle.loads(pickle.dumps(q))
    assert np.array_equal(r.Wq, q.Wq) and np.array_equal(r.flat, q.flat)
    sgd_step(r, g, 1.0)
    assert np.array_equal(r.Wq, before - 1.0 - 1.0)


def test_params_reject_a_vector_of_the_wrong_size():
    with pytest.raises(DimensionMismatch):
        AttentionParams(np.zeros(param_count(3) - 1), 3)


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_the_live_positions_hold_every_live_entry_once_and_no_inert_one(k):
    live = _live(k)
    assert live.shape == (k + 1, 2 * k + 1) and not live.flags.writeable
    assert np.unique(live).size == live.size
    inert = AttentionParams(np.zeros(param_count(k)), k)
    inert.Wv[:, :-1] = inert.bv[:-1] = 1.0  # the entries no readout reads
    assert sorted(live.ravel().tolist() + np.flatnonzero(inert.flat).tolist()) == \
        list(range(param_count(k)))
    p = rand_params(k, seed=k)
    W1 = p.flat[live]  # [[Wq, Wk, Wv[:, -1]], [bq, bk, bv[-1]]]
    assert np.array_equal(W1[:k], np.column_stack([p.Wq, p.Wk, p.Wv[:, -1]]))
    assert np.array_equal(W1[k], np.concatenate([p.bq, p.bk, p.bv[-1:]]))


def test_workspace_refuses_t_by_t_buffers_past_its_limit(monkeypatch):
    # E and dE for one matrix; a stack holds E per matrix and none of backward's buffers
    assert issubclass(BufferTooLarge, ArlifError)
    with pytest.raises(BufferTooLarge, match=f"needs {16 * 8193 ** 2} bytes of T x T buffers, "
                                             f"past the limit of {WORKSPACE_LIMIT} bytes"):
        workspace(8193, 10)  # refused before anything is allocated
    monkeypatch.setattr(arlif.attention, "WORKSPACE_LIMIT", 16 * 50 * 50)
    assert workspace(50, 3).E.shape == (50, 50)  # exactly at the limit
    stack = workspace(2, 50, 3)  # also at the limit: two E's and no dE
    assert stack.E.shape == (2, 50, 50) and stack.dE is None and stack.grad is None
    for shape, size in (((51, 3), 16 * 51 * 51), ((3, 50, 3), 24 * 50 * 50)):
        with pytest.raises(BufferTooLarge, match=f"needs {size} bytes .* limit of {16 * 2500} "):
            workspace(*shape)


# --- softmax -------------------------------------------------------------------

def test_softmax_rows_hand_value():
    out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
    assert out[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert out[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_softmax_rows_normalizes_and_survives_large_logits():
    M = np.array([[1000.0, 1000.0, 999.0], [-5.0, 0.0, 5.0]])
    out = softmax_rows(M)
    assert np.all(np.isfinite(out))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert out[0, 0] == out[0, 1] > out[0, 2]


def test_softmax_constant_row_is_uniform():
    out = softmax_rows(np.full((3, 4), 7.5))
    assert np.allclose(out, 0.25, atol=1e-15)


# --- forward -------------------------------------------------------------------

def test_forward_hand_example():
    # zero logits -> uniform attention; Wv = I, so v = H[:, -1] and every
    # entry of e = A.v is that column's mean
    p = init_params(2, seed=0, scale=0.0)
    H = np.array([[0.2, 0.8], [0.4, 0.6]])
    s, cache = forward(p, H)
    assert s == pytest.approx(0.7, abs=1e-15)
    assert np.allclose(cache.v, [0.8, 0.6], atol=1e-15)
    assert np.allclose(cache.e, [0.7, 0.7], atol=1e-15)
    assert np.allclose(weights(cache), 0.5, atol=1e-15)


def test_forward_uniform_attention_reduces_to_column_mean():
    p = init_params(6, seed=1, scale=0.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        H = rng.uniform(0.05, 0.95, size=(12, 6))
        s, _ = forward(p, H)
        assert s == pytest.approx(H[:, -1].mean(), abs=1e-12)
        srow = forward(p, rng.permutation(H, axis=0))[0]
        assert srow == pytest.approx(s, abs=1e-12)


def test_forward_single_row_history():
    p = rand_params(3, seed=4)
    H = np.array([[0.3, 0.5, 0.6]])
    s, cache = forward(p, H)
    assert weights(cache).shape == (1, 1) and weights(cache)[0, 0] == 1.0
    v = H @ p.Wv + p.bv
    assert cache.r == pytest.approx(float(v[0, -1]), abs=1e-15)
    assert s == min(max(cache.r, EPS), 1.0 - EPS)


def test_forward_snapshots_history():
    p = init_params(2, seed=0, scale=0.0)
    H = np.full((4, 2), 0.5)
    _, cache = forward(p, H)
    H[:] = 0.0
    assert np.all(cache.H == 0.5)


def test_forward_does_not_touch_params():
    p = rand_params(4, seed=8)
    before = p.flat.copy()
    forward(p, np.random.default_rng(0).uniform(size=(7, 4)))
    assert np.array_equal(before, p.flat)


def test_forward_shape_guards():
    p = init_params(3, seed=0)
    with pytest.raises(DimensionMismatch):
        forward(p, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        forward(p, np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        forward(p, np.zeros((0, 3)))
    with pytest.raises(DimensionMismatch):
        forward(p, np.zeros((0, 4, 3)))  # an empty stack
    for shape in ((5, 3), (2, 4, 3)):  # a workspace serves one T x k shape
        with pytest.raises(DimensionMismatch):
            forward(p, np.zeros(shape), out=workspace(4, 3))
    for shape in ((4, 3), (2, 5, 3)):  # a stack's, stacks of one T x k shape, of any length
        with pytest.raises(DimensionMismatch):
            forward(p, np.zeros(shape), out=workspace(2, 4, 3))
    assert forward(p, np.zeros((9, 4, 3)), out=workspace(2, 4, 3))[0].shape == (9,)


def test_forward_clamps_readout():
    p = init_params(2, seed=0, scale=0.0)
    H = np.full((3, 2), 0.5)
    hot = shifted(p, 100.0)
    s, cache = forward(hot, H)
    assert s == 1.0 - EPS and cache.r > s
    cold = shifted(p, -100.0)
    s, cache = forward(cold, H)
    assert s == EPS and cache.r < s


def test_forward_keeps_huge_values_finite_where_the_max_shifted_path_does():
    # unnormalized, E.v is up to T * e^bound times |v|: near the top of the double
    # range it would overflow where the normalized weights keep the readout finite
    T, k = 200, 3
    H = np.random.default_rng(10).uniform(0.0, 1.0, (T, k))
    small = init_params(k, seed=10)
    steep = wide(small, 3.4)  # bound ~60, logits ~20: E up to ~e^20
    cancel = shifted(small, 0.0)  # v is +-0.85e308, positive on the first T/2 rows
    cancel.Wv[0, -1] = 1.7e308
    split = H.copy()
    split[:, 0] = np.arange(T) < T // 2
    for p, X, bv, skips in ((small, H, 1e298, True), (small, H, 1e300, False),
                            (steep, H, 0.0, True), (steep, H, 1e300, False),
                            (cancel, split, -0.85e308, False)):
        p = shifted(p, 0.0)
        p.bv[-1] = bv
        assert skips_row_max(p, T) == skips
        _, cache = forward(p, X)
        assert math.isfinite(cache.r)
        assert abs(cache.r - attention_readout(p, X)) <= 1e-12 * np.abs(cache.v).max()


def test_forward_attention_is_the_row_softmax_of_the_scaled_logits():
    # the biases lift every logit into the hundreds, where exp without the max
    # shift overflows to inf, while Wq/Wk keep the rows' weights spread out
    k = 4
    rng = np.random.default_rng(8)
    p = rand_params(k, seed=8)
    p.Wq = rng.normal(0, 0.5, (k, k))
    p.Wk = rng.normal(0, 0.5, (k, k))
    p.bq = p.bk = np.full(k, 20.0)
    for H in (rng.uniform(0.0, 1.0, (6, k)), rng.uniform(0.0, 1.0, (3, 6, k))):
        _, cache = forward(p, H)
        logits = cache.Q @ cache.K.swapaxes(-1, -2) / math.sqrt(k)
        assert logits.min() > 710.0
        A = weights(cache)
        assert np.all(np.isfinite(A)) and A.max() < 0.99
        assert np.allclose(A.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(A, softmax_rows(logits), rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("k, T", [(3, 6), (1, 5), (10, 100)])
def test_forward_and_backward_agree_with_the_plain_reference(k, T):
    # the declared rounding budget: scores and gradients within 1e-12 of a row
    # softmax on fresh arrays, on both branches and for either label
    rng = np.random.default_rng(100 * k + T)
    p = rand_params(k, seed=k + T)
    p.Wq, p.Wk = p.Wq * (3 / k), p.Wk * (3 / k)  # at k = 10, a bound under LOGIT_LIMIT
    for params, skips in ((p, True), (wide(p, 5.0 if k > 1 else 10.0), False)):
        assert skips_row_max(params, T) == skips
        ws = workspace(T, k)
        for label in (0, 1):
            H = rng.uniform(0.0, 1.0, (T, k))
            s, cache = forward(params, H, out=ws)
            assert cache.s == cache.r  # live, so the gradient is not all zero
            assert abs(s - attention_readout(params, H)) <= 1e-12
            g = backward(params, cache, label).flat
            ref = attention_gradient(params, H, label)
            assert np.abs(g - ref).max() <= 1e-12 and np.count_nonzero(ref) > 0


# --- loss / backward -----------------------------------------------------------

def test_bce_loss_values():
    assert bce_loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-15)
    assert bce_loss(0.5, 0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert bce_loss(0.9, 1) == pytest.approx(-math.log(0.9), abs=1e-15)
    assert bce_loss(0.9, 0) == pytest.approx(-math.log(0.1), abs=1e-12)
    assert bce_loss(1.0 - EPS, 1) < bce_loss(0.5, 1) < bce_loss(EPS, 1)


def test_backward_zero_when_clamped():
    p = init_params(2, seed=0, scale=0.0)
    hot = shifted(p, 100.0)
    _, cache = forward(hot, np.full((3, 2), 0.5))
    g = backward(hot, cache, label=0)
    assert np.all(g.flat == 0.0)


def test_backward_single_row_leaves_query_key_untouched():
    # T = 1 makes the softmax row constant, so nothing flows into Q or K
    p = init_params(4, seed=11)
    _, cache = forward(p, np.random.default_rng(2).uniform(0.2, 0.8, (1, 4)))
    assert cache.s == cache.r  # a clamped readout would zero everything
    g = backward(p, cache, label=1)
    assert np.all(g.Wq == 0.0) and np.all(g.Wk == 0.0)
    assert np.all(g.bq == 0.0) and np.all(g.bk == 0.0)
    assert np.any(g.Wv != 0.0) and np.any(g.bv != 0.0)


def test_forward_on_a_stack_equals_each_matrix_alone():
    p = rand_params(3, seed=2)
    Hs = np.random.default_rng(2).uniform(0.1, 0.9, size=(10, 4, 3))
    assert skips_row_max(p, 4) and not skips_row_max(wide(p), 4)
    # both branches, and clamped readouts too
    for params in (p, wide(p), shifted(p, 100.0), shifted(p, -100.0)):
        s, cache = forward(params, Hs)
        assert s.shape == cache.r.shape == (10,) and len(cache.H) == 10  # one piece at T=4
        for i in range(10):
            one, alone = forward(params, Hs[i])
            assert s[i] == one and cache.r[i] == alone.r
            for name in ("H", "Q", "K", "E", "den", "v", "e"):
                assert np.array_equal(getattr(cache, name)[i], getattr(alone, name))
    with pytest.raises(DimensionMismatch):  # a stack is (N, T, k), not deeper
        forward(p, Hs.reshape(2, 5, 4, 3))


@pytest.mark.parametrize("per_piece", [1, 2, 3])
def test_a_stack_longer_than_its_workspace_is_scored_piece_by_piece(monkeypatch, per_piece):
    # 7 matrices in pieces of 1, 2 or 3, the last one short, on both branches and
    # clamped: each readout and the last piece's buffers are those of its matrix alone
    T, k, n = 5, 3, 7
    monkeypatch.setattr(arlif.attention, "PIECE_BYTES", 8 * T * T * per_piece)
    p = rand_params(k, seed=5)
    Hs = np.random.default_rng(5).uniform(0.0, 1.0, size=(n, T, k))
    for params in (p, wide(p), shifted(p, 100.0), shifted(wide(p), -100.0)):
        alone = [forward(params, H) for H in Hs]
        ws = workspace(n, T, k)
        assert len(ws.H) == per_piece and ws.E.shape == (per_piece, T, T)
        s, cache = forward(params, Hs, out=ws)
        assert cache is ws and s.shape == ws.r.shape == (n,)
        assert s.tolist() == [one for one, _ in alone]
        assert ws.r.tolist() == [c.r for _, c in alone]
        last = n - per_piece * ((n - 1) // per_piece)  # matrices in the last piece
        for j, (_, c) in enumerate(alone[n - last:]):
            for name in ("H", "Q", "K", "E", "den", "v", "e"):
                assert np.array_equal(getattr(ws, name)[j], getattr(c, name)), name
        s_fresh, fresh = forward(params, Hs)  # fresh buffers are sized the same way
        assert len(fresh.H) == per_piece and s_fresh.tolist() == s.tolist()


def test_forward_decides_its_branch_once_per_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _skips_row_max(*args)
    T, k = 4, 3
    monkeypatch.setattr(arlif.attention, "PIECE_BYTES", 8 * T * T)  # pieces of one matrix
    monkeypatch.setattr(arlif.attention, "_skips_row_max", counted)
    p = rand_params(k, seed=1)
    Hs = np.random.default_rng(1).uniform(0.0, 1.0, size=(6, T, k))
    for H, out in ((Hs, None), (Hs, workspace(2, T, k)), (Hs[0], None), (Hs[:1], None)):
        calls.clear()
        forward(p, H, out=out)
        assert len(calls) == 1


CACHE_FIELDS = ("H", "Q", "K", "E", "den", "v", "e", "r", "s")


@pytest.mark.parametrize("k, T", [(3, 6), (1, 5), (4, 1), (1, 1)])
def test_a_reused_workspace_gives_the_bits_of_fresh_buffers(k, T):
    # one workspace through a sequence of steps on both forward branches, with
    # clamped readouts between live ones: nothing a step leaves behind reaches the next
    rng = np.random.default_rng(k * 10 + T)
    p = rand_params(k, seed=T)
    steps = [p, wide(p, 10.0), shifted(p, 100.0), p, shifted(wide(p, 10.0), -100.0),
             wide(p, 10.0), p]
    assert [skips_row_max(q, T) for q in steps] == [True, False, True, True, False, False, True]
    ws = workspace(T, k)
    clamped = 0
    for i, params in enumerate(steps):
        H = rng.uniform(0.0, 1.0, (T, k))
        s, fresh = forward(params, H)
        s_ws, cache = forward(params, H, out=ws)
        assert cache is ws and s_ws == s
        for name in CACHE_FIELDS:
            assert np.array_equal(getattr(cache, name), getattr(fresh, name)), name
        assert skips_row_max(params, T) or np.all(cache.den == 1.0)
        clamped += fresh.s != fresh.r
        g = backward(params, cache, label=i % 2)
        assert g is ws.grad
        g_fresh = backward(params, fresh, label=i % 2)
        assert g_fresh is fresh.grad  # every single-matrix cache lends its gradient buffer
        assert g.flat.tobytes() == g_fresh.flat.tobytes()
    assert clamped == 2


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda ws: pickle.loads(pickle.dumps(ws))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_or_pickled_workspace_writes_into_its_own_buffers(clone):
    # the cache's views (H, Q, K, KT, v, num, den) and backward's (dQ, dK, dv) must be
    # views of the clone's buffers, not copies left holding the first forward's values
    k, T = 4, 6
    rng = np.random.default_rng(4)
    p = init_params(k, seed=1, scale=0.5)
    H0, H = rng.uniform(0.0, 1.0, (2, T, k))
    ws = workspace(T, k)
    forward(p, H0, out=ws)
    backward(p, ws, label=1)
    twin = clone(ws)
    s, fresh = forward(p, H)
    s_twin, cache = forward(p, H, out=twin)
    assert cache is twin and s_twin == s
    for name in CACHE_FIELDS + ("KT", "num"):
        assert np.array_equal(getattr(cache, name), getattr(fresh, name)), name
    for label in (0, 1):
        g = backward(p, twin, label)
        assert g is twin.grad
        assert g.flat.tobytes() == backward(p, fresh, label).flat.tobytes()
    assert np.shares_memory(twin.dv, twin.D)


def test_backward_rejects_a_cache_from_a_stacked_forward():
    p = rand_params(3, seed=3)
    for shape in ((2, 4, 3), (2, 3, 3)):  # T == k passes a check on H's column count alone
        _, cache = forward(p, np.full(shape, 0.5))
        with pytest.raises(StaleCache):
            backward(p, cache, label=1)


def test_backward_rejects_stale_cache():
    p3 = rand_params(3, seed=0)
    _, cache = forward(p3, np.random.default_rng(1).uniform(size=(5, 3)))
    p2 = rand_params(2, seed=0)
    with pytest.raises(StaleCache):
        backward(p2, cache, label=1)


def test_backward_matches_finite_differences():
    p = rand_params(3, seed=7)
    H = np.random.default_rng(7).uniform(0.1, 0.9, size=(4, 3))
    for label in (0, 1):
        _, cache = forward(p, H)
        assert cache.s == cache.r
        analytic = backward(p, cache, label)
        numeric = fd_grads(p, H, label)
        max_rel, max_abs = grad_errors(analytic, numeric)
        assert max_rel < 1e-4
        assert max_abs < 1e-8


def test_backward_matches_finite_differences_on_the_max_shifted_path():
    # criterion 2's tolerances, on parameters whose logit bound exceeds LOGIT_LIMIT
    for k, T in ((2, 4), (3, 5), (5, 16)):
        p = wide(rand_params(k, seed=k + T))
        H = np.random.default_rng(T).uniform(0.1, 0.9, size=(T, k))
        assert not skips_row_max(p, T)
        for label in (0, 1):
            _, cache = forward(p, H)
            assert cache.s == cache.r
            max_rel, max_abs = grad_errors(backward(p, cache, label), fd_grads(p, H, label))
            assert max_rel < 1e-4
            assert max_abs < 1e-8


@pytest.mark.parametrize("k, T", [(3, 6), (4, 1), (10, 100)])
def test_bias_gradients_are_the_sums_of_the_row_gradients(k, T):
    # gb and bv[-1]'s entry each come from one product with a ones vector; they
    # equal the exactly rounded sums over the T rows of dQ, dK and dv
    rng = np.random.default_rng(k + T)
    for params in (rand_params(k, seed=T), wide(rand_params(k, seed=T))):
        ws = workspace(T, k)
        for label in (0, 1):
            forward(params, rng.uniform(0.1, 0.9, (T, k)), out=ws)
            assert ws.s == ws.r
            g = backward(params, ws, label)
            for got, rows in ((g.bq, ws.dQ), (g.bk, ws.dK)):
                for col in range(k):
                    assert abs(got[col] - math.fsum(rows[:, col])) <= 1e-15
            assert abs(g.bv[-1] - math.fsum(ws.dv)) <= 1e-15


def test_backward_gradient_shapes():
    p = rand_params(5, seed=3)
    _, cache = forward(p, np.random.default_rng(3).uniform(size=(6, 5)))
    g = backward(p, cache, label=0)
    assert g.k == 5
    assert g.flat.shape == p.flat.shape
    for name in ("Wq", "Wk", "Wv", "bq", "bk", "bv"):
        assert getattr(g, name).shape == getattr(p, name).shape


# --- sgd_step ------------------------------------------------------------------

def test_sgd_step_hand_example():
    p = init_params(3, seed=0, scale=0.0)
    g = AttentionParams(np.zeros(param_count(3)), 3)
    g.Wq = np.eye(3)
    g.bv = np.ones(3)
    out = sgd_step(p, g, eta=1.0)
    assert out is p  # updates in place
    assert np.array_equal(p.Wq, -np.eye(3))
    assert np.array_equal(p.bv, -np.ones(3))
    assert np.array_equal(p.Wv, np.eye(3))


def test_sgd_step_guards():
    p = init_params(2, seed=0)
    g = init_params(2, seed=1)
    for eta in (0.0, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sgd_step(p, g, eta=eta)
    assert np.array_equal(p.flat, init_params(2, seed=0).flat)  # refused steps change nothing
    with pytest.raises(DimensionMismatch):
        sgd_step(p, init_params(3, seed=0), eta=0.1)


def test_sgd_descent_on_fixed_sample():
    p = rand_params(4, seed=5)
    H = np.random.default_rng(5).uniform(0.1, 0.9, size=(6, 4))
    losses = []
    for _ in range(30):
        s, cache = forward(p, H)
        losses.append(bce_loss(s, 1))
        sgd_step(p, backward(p, cache, label=1), eta=0.01)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]
