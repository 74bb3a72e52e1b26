"""Single query/key/value attention layer over the T x k history matrix.

Exactly 3*k*(k+1) scalars: three affine maps k -> k. The readout is the
mean over trees of the most-recent column of A.V, so the forward pass
computes only that value column, v = H.Wv[:, -1] + bv[-1], and e = A.v.
The other k-1 columns of Wv and entries of bv, (k-1)*(k+1) scalars, never
reach a score and never get a gradient: they are inert, kept in the model
file and in param_count but never computed with.

Deferred normalization: the forward pass does not build the row softmax A.
With E = exp(Z) of the scaled logits Z = Q.K^T / sqrt(k) and den the row
sums of E, e = (E.v) / den; one product of E with [v, 1] gives both E.v and
den, and the T x T divide goes away (the division FlashAttention defers to
the end). The row max, subtracted only to keep exp from overflowing, is
skipped when a bound on |Z| and |v| computed from the parameters alone shows
that E, den and E.v stay finite and nonzero for every H with entries in
[0, 1], which the detector guarantees. Otherwise forward falls back to the
max-shifted softmax, normalized in E's own buffer. The backward pass is
hand-differentiated from E and den (readout mean -> e -> row softmax ->
1/sqrt(k) scaled logits -> the affine maps) and is verified against central
finite differences in the test suite.

Buffers: forward writes every intermediate into a ForwardCache, fresh
arrays per call unless it is handed a workspace (out=). A workspace also
holds backward's buffers and its gradient vector, so a training step on one
T x k matrix (forward, backward, sgd_step) allocates none of its T x T,
T x k or T x 2 arrays; the bits are those of fresh buffers. Q and K come
from one product of H with the stacked [Wq, Wk], their weight gradients from one
H^T.[dQ, dK], and the bias gradients (sums over T) from ones.[dQ, dK] and ones.dv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, StaleCache

EPS = 1e-6
# forward skips the row max while the bound on |Z| is at most this: e^-64 to e^64
# is far inside the normal doubles, so neither E nor den can overflow or reach zero
LOGIT_LIMIT = 64.0
# ...and while T * e^bound * (bound on |v|) is at most this, 2^-24 of the largest
# double: no sum of E.v overflows, nor backward's terms, which |dL/ds| < 2^20 scales
_SUM_LIMIT = 2.0 ** 1000
_block_starts = lru_cache(lambda k: np.cumsum([0, k * k, k * k, k * k, k, k]))  # see _blocks


def param_count(k: int) -> int:
    """Trainable scalars in the layer: 3 affine maps of k*(k+1) each."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 3 * k * (k + 1)


def _blocks(flat: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Wq, Wk, Wv (k x k) and bq, bk, bv (k) as views of a parameter vector,
    in file order."""
    W, b = flat[:3 * k * k].reshape(3, k, k), flat[3 * k * k:].reshape(3, k)
    return W[0], W[1], W[2], b[0], b[1], b[2]


def _block(i: int) -> property:
    """Block i of AttentionParams.flat (see _blocks). Reading gives a view;
    assigning copies into the vector, the only storage, so a copy or pickle
    of the params keeps them in step."""
    def view(p: AttentionParams) -> np.ndarray:
        return _blocks(p.flat, p.k)[i]

    def assign(p: AttentionParams, value) -> None:
        view(p)[...] = value

    return property(view, assign)


@dataclass(eq=False)
class AttentionParams:
    """All param_count(k) scalars as one float64 vector, in model-file order."""

    flat: np.ndarray
    k: int

    Wq, Wk, Wv, bq, bk, bv = (_block(i) for i in range(6))

    def __post_init__(self):
        if self.flat.shape != (param_count(self.k),):
            raise DimensionMismatch(f"k={self.k} takes {param_count(self.k)} scalars, "
                                    f"got shape {self.flat.shape}")


def init_params(k: int, seed: int, scale: float = 0.01) -> AttentionParams:
    """Wv = identity, biases zero, Wq/Wk uniform in [-scale, scale].

    scale = 0 gives exactly-zero logits, i.e. uniform attention on the
    first forward pass.
    """
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    rng = np.random.default_rng(seed)
    params = AttentionParams(np.zeros(param_count(k)), k)
    params.Wq = rng.uniform(-scale, scale, (k, k))
    params.Wk = rng.uniform(-scale, scale, (k, k))
    params.Wv = np.eye(k)
    return params


def _skips_row_max(flat: np.ndarray, k: int, T: int) -> bool:
    """Whether forward may exponentiate the logits of any T x k matrix H with
    entries in [0, 1] without subtracting the row max.

    With H in [0, 1], |Q_il| <= sum_m |Wq_ml| + |bq_l|, so |Z_ij| is at most
    (|Wq|_1 + |bq|_1)(|Wk|_1 + |bk|_1) / sqrt(k) in entrywise L1 norms, and
    |v_i| at most |Wv|_1 + |bv|_1. Non-finite parameters give False.
    """
    # summed at 2^-24 scale: no norm of finite parameters overflows, and warns, in numpy
    s = np.add.reduceat(np.abs(flat) * 2.0 ** -24, _block_starts(k)).tolist()
    bound = (s[0] + s[3]) * (s[1] + s[4]) * 2.0 ** 48 / math.sqrt(k)
    return bound <= LOGIT_LIMIT and T * math.exp(bound) * (s[2] + s[5]) * 2.0 ** 24 <= _SUM_LIMIT


@dataclass
class ForwardCache:
    """forward's buffers, which backward reads. The attention weights are
    E / den[..., None]. A workspace (see workspace()) also holds backward's
    buffers in back, and forward and backward write into it again on each call."""

    H: np.ndarray  # a copy of forward's input, (..., T, k)
    QK: np.ndarray  # Q and K, (2, ..., T, k)
    Qs: np.ndarray  # Q / sqrt(k), the left factor of the logits
    E: np.ndarray  # exp of the scaled logits, each row shifted or not; (..., T, T)
    V1: np.ndarray  # [v, 1], (..., T, 2): v is the value column the readout reads
    Ev: np.ndarray  # [E.v, den], den the row sums of E, or all ones where forward normalized E
    e: np.ndarray  # the attention-weighted values, (E.v) / den
    r: float | np.ndarray = 0.0  # one per matrix of a stack
    s: float | np.ndarray = 0.0
    back: _Backward | None = None

    def __post_init__(self):  # views: Q, K and K^T; v; E.v (num) and den
        self.Q, self.K = self.QK
        self.KT, self.v = self.K.swapaxes(-1, -2), self.V1[..., 0]
        self.num, self.den = self.Ev[..., 0], self.Ev[..., 1]

    def __setstate__(self, state):  # a copy or pickle copies each view apart from its buffer
        self.__dict__.update(state)
        self.__post_init__()


def _cache(shape: tuple[int, ...]) -> ForwardCache:
    """Fresh forward buffers for an input of this shape."""
    rows = shape[:-1]
    return ForwardCache(H=np.empty(shape), QK=np.empty((2,) + shape), Qs=np.empty(shape),
                        E=np.empty(rows + rows[-1:]), V1=np.ones(rows + (2,)),
                        Ev=np.empty(rows + (2,)), e=np.empty(rows))


@dataclass
class _Backward:
    """backward's buffers for one T x k matrix. grad is what backward returns;
    gW, gb and gv are views of it, and its inert entries are never written."""

    grad: AttentionParams
    gd: np.ndarray  # dL/de over den, (T,)
    dv: np.ndarray  # (T,)
    L: np.ndarray  # (T, 2)
    R: np.ndarray  # [v, 1]^T, (2, T): a transposed view of V1 makes the product slower
    dE: np.ndarray  # the logits' gradient, (T, T)
    dQK: np.ndarray  # Q's and K's, (2, T, k)

    def __post_init__(self):  # the gradients of Wq and Wk (2, k, k), bq and bk (2, k), Wv[:, -1]
        k = self.grad.k
        W, b = self.grad.flat[:3 * k * k].reshape(3, k, k), self.grad.flat[3 * k * k:].reshape(3, k)
        self.gW, self.gb, self.gv = W[:2], b[:2], W[2, :, -1]

    __setstate__ = ForwardCache.__setstate__

    @classmethod
    def new(cls, T: int, k: int) -> _Backward:
        return cls(grad=AttentionParams(np.zeros(param_count(k)), k), gd=np.empty(T),
                   dv=np.empty(T), L=np.empty((T, 2)), R=np.ones((2, T)), dE=np.empty((T, T)),
                   dQK=np.empty((2, T, k)))


def workspace(T: int, k: int) -> ForwardCache:
    """Buffers for forward(..., out=) on one T x k matrix and the backward
    that follows it, allocated once for any number of training rows."""
    ws = _cache((T, k))
    ws.back = _Backward.new(T, k)
    return ws


def forward(params: AttentionParams, H, *,
            out: ForwardCache | None = None) -> tuple[float | np.ndarray, ForwardCache]:
    """Score the current history matrix, or each matrix of a stack.

    Q/K are affine images of H, the attention weights are the row softmax of
    Z = Q.K^T / sqrt(k), and e weights v, the last value column, by them; the
    readout is the mean of e over trees, clamped into [EPS, 1 - EPS]. H is
    one T x k matrix, giving a float, or a stack (..., T, k), giving an array
    of readouts of shape (...). H's entries must lie in [0, 1]: the bound
    that lets exp skip the row max assumes it.

    The weights stay unnormalized: E = exp(Z), and one product of E with
    [v, 1] gives E.v and the row sums den, so e = (E.v) / den. exp takes Z as
    it is when _skips_row_max shows that |Z| <= LOGIT_LIMIT and that E.v
    cannot overflow. Otherwise forward falls back to the max-shifted softmax:
    each row is shifted by its max and E is normalized in place, so den is
    all ones. The branch depends on the parameters and T alone, so each
    matrix of a stack gets the same BLAS calls, and so the same bits, as it
    would alone.

    The cache returned is out, when given, written over (a workspace of H's
    shape); otherwise fresh buffers. Either way it holds a copy of H, so the
    caller's buffer may change afterwards.
    """
    H = np.asarray(H)
    if H.ndim < 2 or H.shape[-2] < 1:
        raise DimensionMismatch(f"H must be a T x k matrix or a stack of them, got shape {H.shape}")
    k = params.k
    if H.shape[-1] != k:
        raise DimensionMismatch(f"H has {H.shape[-1]} columns, params expect k={k}")
    if out is None:
        c = _cache(H.shape)
    elif out.H.shape == H.shape:
        c = out
    else:
        raise DimensionMismatch(f"workspace holds a {out.H.shape} input, H has shape {H.shape}")
    # a C-order snapshot: a stack lays each matrix out as a lone one is
    np.copyto(c.H, H)
    T, kk, flat, ones = H.shape[-2], k * k, params.flat, (1,) * (H.ndim - 2)
    # Q and K in one product: [Wq, Wk] broadcast against H, then [bq, bk]
    np.matmul(c.H, flat[:2 * kk].reshape((2,) + ones + (k, k)), out=c.QK)
    c.QK += flat[3 * kk:3 * kk + 2 * k].reshape((2,) + ones + (1, k))
    np.add(c.H @ flat[2 * kk + k - 1:3 * kk:k], flat[-1], out=c.v)  # H.Wv[:, -1] + bv[-1]
    # the logits and then E in one buffer: no other temporary the size of E
    np.divide(c.Q, math.sqrt(k), out=c.Qs)
    E = np.matmul(c.Qs, c.KT, out=c.E)
    if _skips_row_max(flat, k, T):
        np.exp(E, out=E)
        np.matmul(E, c.V1, out=c.Ev)
    else:
        E -= E.max(axis=-1, keepdims=True)
        np.exp(E, out=E)
        # normalized before the product: E.v with E in (0, 1] could overflow where e cannot
        E /= E.sum(axis=-1, keepdims=True)
        np.matmul(E, c.V1, out=c.Ev)
        c.den[...] = 1.0
    np.divide(c.num, c.den, out=c.e)
    r = np.add.reduce(c.e, axis=-1) / T
    if r.ndim:
        s = np.clip(r, EPS, 1.0 - EPS)
    else:
        r = float(r)
        s = min(max(r, EPS), 1.0 - EPS)
    c.r, c.s = r, s
    return s, c


def bce_loss(s: float, label: int) -> float:
    """Binary cross-entropy against a {0,1} label; s must be in (0,1)."""
    return -(label * math.log(s) + (1 - label) * math.log(1.0 - s))


def backward(params: AttentionParams, cache: ForwardCache, label: int) -> AttentionParams:
    """Gradients of BCE(score, label) w.r.t. every parameter.

    Returns an AttentionParams holding the gradients. The gradient is zero
    whenever the readout was clamped (s != r), and always zero on the inert
    Wv/bv entries. A workspace cache lends its buffers: the result is then
    the workspace's, and the next backward on it writes over it.
    """
    H = cache.H
    if H.ndim != 2 or H.shape[1] != params.k:
        raise StaleCache(f"cache built for H of shape {H.shape}, params expect "
                         f"one T x {params.k} matrix")
    T, k = H.shape
    b = cache.back if cache.back is not None else _Backward.new(T, k)
    if cache.s != cache.r:
        b.grad.flat.fill(0.0)
        return b.grad
    E, den, e = cache.E, cache.den, cache.e
    s, y = cache.s, label
    g = (s - y) / (s * (1.0 - s)) / T  # dL/de_i: dL/ds over the mean's T terms

    # with weights a_ij = E_ij / den_i: dv_j = g * sum_i a_ij, and the row-wise
    # softmax Jacobian gives dz_ij = E_ij * w_i * (v_j - e_i), w_i = g / sqrt(k) / den_i;
    # w_i * (v_j - e_i) is one (T x 2).(2 x T) product, [w, -w*e].[v, 1]^T, with no
    # broadcast over T x T. Unshifted, den_i >= T e^-bound keeps it under 2^21 * _SUM_LIMIT
    dv = np.matmul(np.divide(g, den, out=b.gd), E, out=b.dv)
    w, nwe = b.L.T  # the columns of L = [w, -w*e]
    np.divide(g / math.sqrt(k), den, out=w)
    np.negative(w, out=nwe)
    nwe *= e
    np.copyto(b.R[0], cache.v)  # R = [v, 1]^T
    dE = np.matmul(b.L, b.R, out=b.dE)
    dE *= E
    np.matmul(dE, cache.K, out=b.dQK[0])
    np.matmul(dE.T, cache.Q, out=b.dQK[1])

    np.matmul(H.T, b.dQK, out=b.gW)
    np.matmul(b.R[1], b.dQK, out=b.gb)  # R[1] is all ones: a sum over T as one product
    np.matmul(H.T, dv, out=b.gv)
    b.grad.flat[-1] = b.R[1] @ dv  # bv[-1]
    return b.grad


def sgd_step(params: AttentionParams, grads: AttentionParams, eta: float) -> AttentionParams:
    """Plain SGD: p <- p - eta * g, in place; returns params."""
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be a finite number > 0, got {eta}")
    if grads.k != params.k:
        raise DimensionMismatch(f"gradient k={grads.k} vs params k={params.k}")
    params.flat -= eta * grads.flat
    return params
