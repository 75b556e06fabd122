"""Reverse-mode automatic differentiation over float numpy arrays.

A deliberately small op set tailored to a decoder-only transformer:
broadcastable arithmetic, matmul, reductions and embedding gathers, plus
fused ops for the model's hot composites: ``causal_attention`` (causal
softmax attention, scored in blocks of query rows), ``log_softmax``,
``layer_norm``, the two residual branches ``add_matmul`` (``x + a @ w``)
and ``mlp`` (``x + gelu(h @ w_in) @ w_out`` with the tanh GELU), which
add the residual in place into the branch's output, and ``ce_kl_loss``
(the weighted cross-entropy plus KL-to-reference training loss, which
runs the output head itself one batch row at a time, normalises the
logits and keeps only their gradient, formed in the forward). Each fused op is
one graph node with a closed-form VJP that keeps only what it needs, and
does the same float operations in the same order as the primitive nodes
it replaces. ``softmax_lse`` is the numpy softmax and log normaliser that
``log_softmax`` and ``ce_kl_loss`` share.
``Tensor`` defines only the operators the model uses, ``+`` and ``@``.
A tensor marked ``const`` takes no gradient: an op whose inputs are all
``const`` records no parents and no VJP, so a forward over ``const``
leaves (greedy decoding) keeps no graph and frees each intermediate
array as soon as the next op has consumed it. A tensor keeps the dtype
of a float array it wraps and every op computes in its inputs' dtype:
training and the gradient checks run float64, greedy decoding float32.
The tests check every op's VJP against central finite differences, each
fused op's forward against its primitive composition, and every op's
float32 run against its float64 run.
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_ATTENTION_BLOCK = 48  # query rows per block of causal_attention
_FUTURE = ~np.tri(_ATTENTION_BLOCK, dtype=bool)  # [i, j] true for j > i: a block's later keys
_FUTURE.setflags(write=False)


class Tensor:
    """A node in the computation graph.

    ``data`` is a float ndarray: a float array or numpy float scalar keeps
    its dtype, anything else (ints, lists) becomes float64. ``_vjp`` maps
    the output gradient to a tuple of parent gradients (None for parents
    that need no gradient, e.g. integer indices held elsewhere). A result
    computed from ``const`` parents alone is ``const`` itself and keeps
    neither.
    """

    __slots__ = ("data", "grad", "const", "_parents", "_vjp")

    def __init__(self, data, parents=(), vjp=None, const=False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        if parents and all(p.const for p in parents):
            parents, vjp, const = (), None, True
        self.const = const
        self._parents: tuple[Tensor, ...] = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    # The model's operator sugar; scalars and ndarrays are wrapped as constants.
    def __add__(self, other):
        return add(self, _ensure(other))

    def __matmul__(self, other):
        return matmul(self, _ensure(other))


def _ensure(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out_data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return Tensor(out_data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor(out_data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return Tensor(out_data, (a, b), vjp)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def vjp(g):
        return (g * out_data,)

    return Tensor(out_data, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out_data * out_data),)

    return Tensor(out_data, (x,), vjp)


def power(x: Tensor, exponent: float) -> Tensor:
    """x ** exponent for a constant real exponent (positive base assumed)."""
    out_data = np.power(x.data, exponent)

    def vjp(g):
        return (g * exponent * np.power(x.data, exponent - 1.0),)

    return Tensor(out_data, (x,), vjp)


def sumdim(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_expanded, x.data.shape).copy(),)

    return Tensor(out_data, (x,), vjp)


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    """Stable log-sum-exp along ``axis`` (keepdims). Backward is softmax."""
    m = np.max(x.data, axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_data = m + np.log(total)

    def vjp(g):
        return (g * (shifted / total),)

    return Tensor(out_data, (x,), vjp)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """out[..., :] = table[indices[...], :]; scatter-add on backward."""
    indices = np.asarray(indices)
    out_data = table.data[indices]

    def vjp(g):
        grad_table = np.zeros_like(table.data)
        np.add.at(grad_table, indices, g)
        return (grad_table,)

    return Tensor(out_data, (table,), vjp)


def take_along_last(x: Tensor, indices: np.ndarray) -> Tensor:
    """out[b, t] = x[b, t, indices[b, t]] for a [B, T, V] tensor."""
    indices = np.asarray(indices)
    out_data = np.take_along_axis(x.data, indices[..., None], axis=-1)[..., 0]
    leading = np.ix_(*[np.arange(n) for n in indices.shape])

    def vjp(g):
        grad_x = np.zeros_like(x.data)
        np.add.at(grad_x, (*leading, indices), g)
        return (grad_x,)

    return Tensor(out_data, (x,), vjp)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of the second-to-last axis."""
    out_data = x.data[..., start:stop, :]

    def vjp(g):
        grad_x = np.zeros_like(x.data)
        grad_x[..., start:stop, :] = g
        return (grad_x,)

    return Tensor(out_data, (x,), vjp)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def vjp(g):
        return (g.reshape(x.data.shape),)

    return Tensor(x.data.reshape(shape), (x,), vjp)


def swapaxes(x: Tensor, axis1: int, axis2: int) -> Tensor:
    def vjp(g):
        return (np.swapaxes(g, axis1, axis2),)

    return Tensor(np.swapaxes(x.data, axis1, axis2), (x,), vjp)


# sub, mul, exp, tanh, power, sumdim, logsumexp and take_along_last have no library caller and no
# Tensor operator: the tests' reference compositions call them by name, and the benchmark tracer wraps them.


def causal_attention(q: Tensor, k: Tensor, v: Tensor, scale: float, offset: int = 0) -> Tensor:
    """softmax(scale * q kᵀ) v under a causal mask, for [..., heads, t, d] queries.

    Query row i sits at key position ``offset + i`` of the [..., heads, n, d]
    keys and values and gives every later key exactly zero weight; a
    positive offset lets new rows attend to cached keys. Block [lo, hi) of
    ``_ATTENTION_BLOCK`` rows scores keys [0, offset + hi) only, which skips
    most of the masked half, and sees its whole key prefix, so no
    online-softmax rescaling is needed. Later keys lie only in the block's
    diagonal square, keys [offset + lo, offset + hi). Whatever the offset,
    that square's mask is the strictly upper triangle of side hi - lo, so
    every block slices the one constant ``_FUTURE`` to set those scores to
    -inf before a plain row max and exp (exp(-inf) is 0). ``scale``
    multiplies the queries once, and the VJP's query and key gradients once
    at its end; for a power-of-two scale (head_dim 4, 16, 64, …) that
    rounds exactly as scaling each block's scores would. The VJP keeps each
    block's probabilities.

    Blocks of 48 rows keep 0.59 of a [t, t] square at t = 256 (64 rows
    would keep 0.625) and make 6 passes where 32 rows make 8 at the demo's
    245 columns, which pays for training's 3-row shards (see ``trainer``).
    The [..., heads, t, d] output is laid out in [..., t, heads, d] memory
    order, so merging the heads back into [..., t, heads * d] is a view.
    """
    t = q.data.shape[-2]
    scaled_q = q.data * scale
    lead, heads = q.data.shape[:-3], q.data.shape[-3]
    out = np.swapaxes(np.empty(lead + (t, heads, v.data.shape[-1]), q.data.dtype), -2, -3)
    blocks = []
    for lo in range(0, t, _ATTENTION_BLOCK):
        hi = min(lo + _ATTENTION_BLOCK, t)
        n = offset + hi
        probs = scaled_q[..., lo:hi, :] @ np.swapaxes(k.data[..., :n, :], -1, -2)
        np.copyto(probs[..., offset + lo :], -np.inf, where=_FUTURE[: hi - lo, : hi - lo])
        probs -= np.max(probs, axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        out[..., lo:hi, :] = probs @ v.data[..., :n, :]
        blocks.append((lo, hi, probs))

    def vjp(g):
        gq = np.empty_like(q.data)
        gk = np.zeros_like(k.data, q.data.dtype)
        gv = np.zeros_like(v.data, q.data.dtype)
        for lo, hi, probs in blocks:
            n = offset + hi
            g_block = g[..., lo:hi, :]
            # swapaxes(p) @ g beats swapaxes(swapaxes(g) @ p) at these shapes.
            gv[..., :n, :] += np.swapaxes(probs, -1, -2) @ g_block
            gs = g_block @ np.swapaxes(v.data[..., :n, :], -1, -2)
            gs -= np.einsum("...ij,...ij->...i", gs, probs)[..., None]
            gs *= probs
            gq[..., lo:hi, :] = gs @ k.data[..., :n, :]
            gk[..., :n, :] += np.swapaxes(gs, -1, -2) @ q.data[..., lo:hi, :]
        gq *= scale
        gk *= scale
        return gq, gk, gv

    return Tensor(out, (q, k, v), vjp)


def softmax_lse(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The softmax of ``x`` over its last axis, and its log normaliser ``m + log sum exp(x - m)``.

    ``m`` is each row's max; the normaliser keeps the reduced axis. The
    softmax is written into ``out`` when given, else into a new array.
    """
    m = np.max(x, axis=-1, keepdims=True)
    probs = np.subtract(x, m, out=out)
    np.exp(probs, out=probs)
    total = probs.sum(axis=-1, keepdims=True)
    lse = m + np.log(total)
    probs /= total
    return probs, lse


def log_softmax(x: Tensor) -> Tensor:
    """Stable log-softmax over the last axis; the VJP keeps the softmax."""
    probs, lse = softmax_lse(x.data)

    def vjp(g):
        gx = probs * -g.sum(axis=-1, keepdims=True)
        gx += g
        return (gx,)

    return Tensor(x.data - lse, (x,), vjp)


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float) -> Tensor:
    """The last axis normalised to zero mean and unit variance, scaled and shifted.

    The VJP keeps ``normed`` (``x`` normalised) and ``inv`` (the
    reciprocal standard deviation).
    """
    inv_d = 1.0 / x.data.shape[-1]
    normed = x.data - x.data.sum(axis=-1, keepdims=True) * inv_d
    inv = np.power((normed * normed).sum(axis=-1, keepdims=True) * inv_d + eps, -0.5)
    normed *= inv
    out = normed * scale.data
    out += bias.data
    leading = tuple(range(x.data.ndim - 1))

    def vjp(g):
        g_normed = g * scale.data
        gx = g_normed - g_normed.sum(axis=-1, keepdims=True) * inv_d
        gx -= normed * ((g_normed * normed).sum(axis=-1, keepdims=True) * inv_d)
        gx *= inv
        return gx, (g * normed).sum(axis=leading), g.sum(axis=leading)

    return Tensor(out, (x, scale, bias), vjp)


def add_matmul(x: Tensor, a: Tensor, w: Tensor) -> Tensor:
    """x + a @ w as one node, the residual ``x`` added in place into the product's fresh buffer.

    The two nodes ``x + a @ w`` keep the product beside the sum until the
    backward; IEEE addition commutes, so the bytes are the same.
    """
    out = np.matmul(a.data, w.data)
    out += x.data

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(w.data, -1, -2))
        gw = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(g, x.data.shape), _unbroadcast(ga, a.data.shape), _unbroadcast(gw, w.data.shape)

    return Tensor(out, (x, a, w), vjp)


def mlp(x: Tensor, h: Tensor, w_in: Tensor, w_out: Tensor) -> Tensor:
    """x + gelu(h @ w_in) @ w_out, with GELU's tanh approximation 0.5 x (1 + t), t = tanh(c (x + 0.044715 x³)).

    The GELU chain runs in place in the pre-activation's buffer, which ends
    as the activation, and the residual ``x`` is added in place to the
    output projection, as ``add_matmul`` does. The VJP keeps that
    activation and the GELU slope, which the forward forms only when some
    input takes a gradient, so a forward over ``const`` leaves skips it.
    """
    act = np.matmul(h.data, w_in.data)  # the pre-activation x, until it is overwritten below
    t = act * act
    t *= act
    t *= 0.044715
    t += act
    t *= _GELU_C
    np.tanh(t, out=t)
    slope = None
    if not all(p.const for p in (x, h, w_in, w_out)):
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        inner = act * act
        inner *= 3 * 0.044715
        inner += 1.0
        inner *= _GELU_C
        slope *= inner
        slope *= act
    t += 1.0
    if slope is not None:
        slope += t
    act *= t
    act *= 0.5
    out = np.matmul(act, w_out.data)
    out += x.data

    def vjp(g):
        g_act = np.matmul(g, np.swapaxes(w_out.data, -1, -2))
        g_w_out = _unbroadcast(np.matmul(np.swapaxes(act, -1, -2), g), w_out.data.shape)
        g_act *= slope
        g_act *= 0.5
        g_h = np.matmul(g_act, np.swapaxes(w_in.data, -1, -2))
        g_w_in = _unbroadcast(np.matmul(np.swapaxes(h.data, -1, -2), g_act), w_in.data.shape)
        return _unbroadcast(g, x.data.shape), g_h, g_w_in, g_w_out

    return Tensor(out, (x, h, w_in, w_out), vjp)


def ce_kl_loss(
    hidden: Tensor,
    out_proj: Tensor,
    targets: np.ndarray,
    weights: np.ndarray,
    ref_hidden: np.ndarray | None,
    ref_head: np.ndarray | None,
    ref_lse: np.ndarray | None,
    kl_weight: float,
) -> tuple[Tensor, float, float]:
    """Weighted cross-entropy plus ``kl_weight`` times KL(current || reference).

    ``hidden`` is the [B, T, d] final residual stream and ``out_proj`` the
    [d, V] head; their product, the logits, is normalised here by a stable
    log-softmax into ``lp``. ``targets`` holds the [B, T] ids to score and
    ``weights`` the [B, T] averaging weights. The reference, held constant,
    comes as its parts: its [B, T, d] final hidden states ``ref_hidden``,
    its [d, V] head ``ref_head`` and its [B, T, 1] log normalisers
    ``ref_lse``, so its log-probabilities are
    ``ref_logprobs = ref_hidden @ ref_head - ref_lse``. With ``p = exp(lp)``:

        ce = -sum_bt w[b,t] * lp[b, t, targets[b,t]]
        kl =  sum_bt w[b,t] * sum_v p * (lp - ref_logprobs)

    The forward runs one batch row at a time. A row's logits, formed in
    one [T, V] scratch array that every row reuses, become ``lp`` and then
    the KL difference in place; its ``ref_logprobs`` pass through a second
    such scratch. Its softmax is written straight into the row of the one
    [B, T, V] array the node keeps, where it becomes the loss's gradient
    with respect to the logits:

        w * (p + kl_weight * p * (diff - kl_row) - onehot(targets))

    with ``diff = lp - ref_logprobs`` and ``kl_row = sum_v p * diff``; the
    VJP carries it through the head to ``hidden`` and ``out_proj``. The
    CE and KL are summed once, over the whole [B, T] arrays.
    Returns ``(total, ce, kl)``: the scalar loss tensor and the two terms
    as floats. Without a reference (``ref_hidden`` None) or at
    ``kl_weight == 0`` the KL is not computed, ``kl`` is 0.0 and ``total``
    is exactly ``ce``.
    """
    h, head = hidden.data, out_proj.data
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=h.dtype)
    use_kl = ref_hidden is not None and kl_weight > 0
    grad = np.empty(targets.shape + head.shape[-1:], h.dtype)  # each row's softmax p, then its gradient
    logits = np.empty(grad.shape[1:], h.dtype)
    ref_logprobs = np.empty_like(logits) if use_kl else None
    picked, lse = np.empty(targets.shape, h.dtype), np.empty(targets.shape + (1,), h.dtype)
    kl_rows = np.empty(targets.shape, h.dtype)
    columns = np.arange(targets.shape[1])
    for b in range(targets.shape[0]):
        np.matmul(h[b], head, out=logits)
        p, lse[b] = softmax_lse(logits, out=grad[b])
        picked[b] = logits[columns, targets[b]]
        if use_kl:
            logits -= lse[b]  # lp
            np.matmul(ref_hidden[b], ref_head, out=ref_logprobs)
            ref_logprobs -= ref_lse[b]
            logits -= ref_logprobs  # diff
            kl_rows[b] = np.einsum("...v,...v->...", p, logits)
            logits -= kl_rows[b][:, None]
            logits *= p
            logits *= kl_weight
            p += logits
        p *= weights[b][:, None]
        p[columns, targets[b]] -= weights[b]
    ce = -((picked - lse[..., 0]) * weights).sum()
    kl, loss = 0.0, ce
    if use_kl:
        kl = (kl_rows * weights).sum()
        loss = ce + kl * kl_weight

    def vjp(g):
        # ``backward`` runs a VJP once, so the saved gradient is scaled in place.
        g_logits = np.multiply(grad, g, out=grad)
        g_hidden = np.matmul(g_logits, np.swapaxes(out_proj.data, -1, -2))
        g_out_proj = np.matmul(np.swapaxes(hidden.data, -1, -2), g_logits)
        return g_hidden, _unbroadcast(g_out_proj, out_proj.data.shape)

    return Tensor(loss, (hidden, out_proj), vjp), float(ce), float(kl)


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar ``loss`` into the graph's leaves.

    A node's own gradient is dropped once its VJP has consumed it, so only
    leaves (tensors without a VJP) keep ``grad`` after the call. Each node
    also drops its VJP and parents as soon as its VJP has run, which frees
    the arrays it saved while the rest of the backward runs, so a graph
    can be backpropagated only once.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")

    # Iterative post-order DFS; popping from its end gives a valid
    # topological order from the loss down to the leaves.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._vjp is not None and node.grad is not None:
            for parent, grad in zip(node._parents, node._vjp(node.grad)):
                if grad is None:
                    continue
                if parent.grad is None:
                    parent.grad = grad
                else:
                    parent.grad = parent.grad + grad
            node.grad = None
        node._vjp, node._parents = None, ()
