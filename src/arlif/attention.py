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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, StaleCache

EPS = 1e-6
# forward skips the row max while the bound on |Z| is at most this: e^-64 to e^64
# is far inside the normal doubles, so neither E nor den can overflow or reach zero
LOGIT_LIMIT = 64.0
# ...and while T * e^bound * (bound on |v|) is at most this, 2^-24 of the largest
# double: no sum of E.v overflows, nor backward's terms, which |dL/ds| < 2^20 scales
_SUM_LIMIT = 2.0 ** 1000


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
    kk = k * k
    # summed at 2^-24 scale: no norm of finite parameters overflows, and warns, in numpy
    s = np.add.reduceat(np.abs(flat) * 2.0 ** -24,
                        [0, kk, 2 * kk, 3 * kk, 3 * kk + k, 3 * kk + 2 * k]).tolist()
    bound = (s[0] + s[3]) * (s[1] + s[4]) * 2.0 ** 48 / math.sqrt(k)
    return bound <= LOGIT_LIMIT and T * math.exp(bound) * (s[2] + s[5]) * 2.0 ** 24 <= _SUM_LIMIT


@dataclass
class ForwardCache:
    """What backward reads. The attention weights are E / den[..., None]."""

    H: np.ndarray
    Q: np.ndarray
    K: np.ndarray
    E: np.ndarray  # exp of the scaled logits, each row shifted or not; (..., T, T)
    den: np.ndarray  # row sums of E; all ones where forward normalized E itself
    v: np.ndarray  # the value column the readout reads, H.Wv[:, -1] + bv[-1]
    e: np.ndarray  # the attention-weighted values, (E.v) / den
    r: float | np.ndarray  # one per matrix of a stack
    s: float | np.ndarray


def forward(params: AttentionParams, H) -> tuple[float | np.ndarray, ForwardCache]:
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
    """
    # a C-order snapshot: the caller's buffer may mutate, and a stack must lay
    # each matrix out as a lone one is
    H = np.array(H, dtype=np.float64, order="C")
    if H.ndim < 2 or H.shape[-2] < 1:
        raise DimensionMismatch(f"H must be a T x k matrix or a stack of them, got shape {H.shape}")
    k = params.k
    if H.shape[-1] != k:
        raise DimensionMismatch(f"H has {H.shape[-1]} columns, params expect k={k}")
    Wq, Wk, Wv, bq, bk, bv = _blocks(params.flat, k)
    Q = H @ Wq + bq
    K = H @ Wk + bk
    V1 = np.ones(H.shape[:-1] + (2,))  # [v, 1]: one product with E gives E.v and den
    V1[..., 0] = H @ Wv[:, -1] + bv[-1]
    # the logits and then E in one buffer: no other temporary the size of E
    E = (Q / math.sqrt(k)) @ K.swapaxes(-1, -2)
    if _skips_row_max(params.flat, k, H.shape[-2]):
        np.exp(E, out=E)
        Ev = E @ V1
        den = Ev[..., 1]
    else:
        E -= E.max(axis=-1, keepdims=True)
        np.exp(E, out=E)
        # normalized before the product: E.v with E in (0, 1] could overflow where e cannot
        E /= E.sum(axis=-1, keepdims=True)
        Ev = E @ V1
        den = np.ones(E.shape[:-1])
    e = Ev[..., 0] / den
    r = e.mean(axis=-1)
    if r.ndim:
        s = np.clip(r, EPS, 1.0 - EPS)
    else:
        r = float(r)
        s = min(max(r, EPS), 1.0 - EPS)
    return s, ForwardCache(H=H, Q=Q, K=K, E=E, den=den, v=V1[..., 0], e=e, r=r, s=s)


def bce_loss(s: float, label: int) -> float:
    """Binary cross-entropy against a {0,1} label; s must be in (0,1)."""
    return -(label * math.log(s) + (1 - label) * math.log(1.0 - s))


def backward(params: AttentionParams, cache: ForwardCache, label: int) -> AttentionParams:
    """Gradients of BCE(score, label) w.r.t. every parameter.

    Returns an AttentionParams holding the gradients. The gradient is zero
    whenever the readout was clamped (s != r), and always zero on the inert
    Wv/bv entries.
    """
    if cache.H.ndim != 2 or cache.H.shape[1] != params.k or cache.Q.shape != cache.H.shape:
        raise StaleCache(f"cache built for H of shape {cache.H.shape}, params expect "
                         f"one T x {params.k} matrix")
    grads = np.zeros(param_count(params.k))
    if cache.s != cache.r:
        return AttentionParams(grads, params.k)
    H, Q, K, E, den, v, e = cache.H, cache.Q, cache.K, cache.E, cache.den, cache.v, cache.e
    T, k = H.shape
    s, y = cache.s, label
    g = (s - y) / (s * (1.0 - s)) / T  # dL/de_i: dL/ds over the mean's T terms

    # with weights a_ij = E_ij / den_i: dv_j = g * sum_i a_ij, and the row-wise
    # softmax Jacobian gives dz_ij = E_ij * w_i * (v_j - e_i), w_i = g / sqrt(k) / den_i;
    # w_i * (v_j - e_i) is one (T x 2).(2 x T) product, [w, -w*e].[v, 1]^T, with no
    # broadcast over T x T. Unshifted, den_i >= T e^-bound keeps it under 2^21 * _SUM_LIMIT
    dv = (g / den) @ E
    w = g / math.sqrt(k) / den
    L = np.empty((T, 2))
    L[:, 0] = w
    L[:, 1] = -w * e
    R = np.ones((2, T))
    R[0] = v
    dlogits = L @ R
    dlogits *= E
    dQ = dlogits @ K
    dK = dlogits.T @ Q

    gWq, gWk, gWv, gbq, gbk, gbv = _blocks(grads, k)
    gWq[...] = H.T @ dQ
    gWk[...] = H.T @ dK
    gbq[...] = dQ.sum(axis=0)
    gbk[...] = dK.sum(axis=0)
    gWv[:, -1] = H.T @ dv
    gbv[-1] = dv.sum()
    return AttentionParams(grads, k)


def sgd_step(params: AttentionParams, grads: AttentionParams, eta: float) -> AttentionParams:
    """Plain SGD: p <- p - eta * g, in place; returns params."""
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be a finite number > 0, got {eta}")
    if grads.k != params.k:
        raise DimensionMismatch(f"gradient k={grads.k} vs params k={params.k}")
    params.flat -= eta * grads.flat
    return params
