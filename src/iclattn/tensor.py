"""Minimal dense-tensor kernel with reverse-mode autodiff.

Everything is float64 and row-major. There is no broadcasting beyond
what `add`/`mul` need for bias terms. The graph is recorded implicitly:
each result tensor keeps its parents and a backward closure, and
`backward()` replays them in reverse topological order.

Tensors are immutable after construction (the optimizer mutates `.data`
in place as the single writer during training). One backward graph per
thread; graphs are never shared.

Gradient ownership: a gradient array may be shared between tensors (`add`
hands one array to both operands; `reshape`, `transpose` and `concat` hand
out views), so no gradient array is ever written in place. A second
contribution is summed into a fresh array, and callers that rescale
`.grad` rebind it. Constants (neither requiring grad nor produced by a
tracked op) receive no gradient. A non-leaf node's gradient is released
as soon as its backward closure has run; only leaves keep theirs.
"""

from __future__ import annotations

import numpy as np

# Additive mask value for blocked attention pairs. Large negative but
# finite so masked logits underflow to exactly 0 after max-subtraction
# instead of producing NaNs.
MASK_VALUE = -1e9
_MASKED_ROW_THRESHOLD = MASK_VALUE / 2


class ShapeMismatchError(ValueError):
    pass


class SpecError(ValueError):
    """Malformed einsum-style contraction spec."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)


def _result(data, parents, backward_fn):
    """Build a graph node. Gradient tracking is inherited from parents."""
    needs = any(_tracked(p) for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    if needs:
        out._parents = parents
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _tracked(t):
    """True when a gradient reaching `t` has a reader."""
    return t.requires_grad or t._backward is not None


def _accumulate(t, g):
    if not _tracked(t):
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def constant(data):
    return Tensor(data, requires_grad=False)


def backward(loss):
    """Accumulate gradients of `loss` into every reachable requires_grad
    tensor, then release the graph and every non-leaf gradient.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.data.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
        node._parents = ()
        node._backward = None


# ---------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------

def add(a, b):
    data = a.data + b.data
    def back(g):
        if _tracked(a):
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(g, b.data.shape))
    return _result(data, (a, b), back)


def mul(a, b):
    data = a.data * b.data
    def back(g):
        if _tracked(a):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
    return _result(data, (a, b), back)


def scale(a, c):
    c = float(c)
    data = a.data * c
    def back(g):
        _accumulate(a, g * c)
    return _result(data, (a,), back)


# Contraction plans keyed by (labels, shapes): most contractions lower
# to a batched matmul, which beats naive einsum loops by a wide margin.
_PLAN_CACHE = {}


def _build_plan(la, lb, out, ashape, bshape):
    sa, sb, so = set(la), set(lb), set(out)
    if (sa - sb) - so or (sb - sa) - so:
        return "einsum"  # axis summed out of a single operand: rare, fall back
    batch = [l for l in out if l in sa and l in sb]
    afree = [l for l in la if l not in sb]
    bfree = [l for l in lb if l not in sa]
    contracted = [l for l in la if l in sb and l not in so]
    dims = {**{l: d for l, d in zip(la, ashape)},
            **{l: d for l, d in zip(lb, bshape)}}
    perm_a = [la.index(l) for l in batch + afree + contracted]
    perm_b = [lb.index(l) for l in batch + contracted + bfree]
    P = int(np.prod([dims[l] for l in batch], dtype=np.int64))
    M = int(np.prod([dims[l] for l in afree], dtype=np.int64))
    K = int(np.prod([dims[l] for l in contracted], dtype=np.int64))
    N = int(np.prod([dims[l] for l in bfree], dtype=np.int64))
    result_labels = batch + afree + bfree
    out_shape = tuple(dims[l] for l in result_labels)
    perm_out = [result_labels.index(l) for l in out]
    return (tuple(perm_a), tuple(perm_b), (P, M, K), (P, K, N), out_shape,
            tuple(perm_out))


def _fast_einsum(la, lb, out, a, b):
    key = (la, lb, out, a.shape, b.shape)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _build_plan(la, lb, out, a.shape, b.shape)
        _PLAN_CACHE[key] = plan
    if plan == "einsum":
        return np.einsum(f"{la},{lb}->{out}", a, b)
    perm_a, perm_b, sha, shb, out_shape, perm_out = plan
    lhs = np.transpose(a, perm_a).reshape(sha)
    rhs = np.transpose(b, perm_b).reshape(shb)
    res = (lhs @ rhs).reshape(out_shape)
    return np.transpose(res, perm_out) if perm_out != tuple(range(len(perm_out))) else res


def _parse_spec(spec):
    if "->" not in spec:
        raise SpecError(f"spec {spec!r} lacks '->'")
    lhs, out = spec.split("->")
    parts = lhs.split(",")
    if len(parts) != 2:
        raise SpecError(f"spec {spec!r} must name exactly two operands")
    la, lb = parts
    for labels in (la, lb):
        if len(set(labels)) != len(labels):
            raise SpecError(f"spec {spec!r} repeats an axis label within one operand")
    if len(set(out)) != len(out) or not set(out) <= (set(la) | set(lb)):
        raise SpecError(f"spec {spec!r} has an invalid output")
    return la, lb, out


def _check_extents(spec, la, lb, a, b):
    if len(la) != a.ndim or len(lb) != b.ndim:
        raise ShapeMismatchError(
            f"spec {spec!r} expects ranks ({len(la)},{len(lb)}), "
            f"got {a.ndim} and {b.ndim}")
    extents = {}
    for labels, arr in ((la, a), (lb, b)):
        for axis, ext in zip(labels, arr.shape):
            if extents.setdefault(axis, ext) != ext:
                raise ShapeMismatchError(
                    f"axis {axis!r} has extents {extents[axis]} and {ext} in spec {spec!r}")


def _einsum_partial(g, g_labels, other, other_labels, target_labels, target_shape):
    """Gradient wrt one contraction operand: contract the output gradient
    with the other operand down to the target's labels, broadcasting any
    axis that appears in neither.
    """
    known = set(g_labels) | set(other_labels)
    present = "".join(l for l in target_labels if l in known)
    partial = _fast_einsum(g_labels, other_labels, present, g, other)
    if present == target_labels:
        return partial
    expand = [slice(None) if l in present else None for l in target_labels]
    # reorder `present` axes to their order within target_labels
    order = sorted(range(len(present)), key=lambda i: target_labels.index(present[i]))
    partial = np.transpose(partial, order)
    return np.broadcast_to(partial[tuple(expand)], target_shape).copy()


def contract(spec, a, b):
    """Einstein-notation contraction of two tensors, e.g.
    contract("bhtd,bhrd->bhtr", q, k).
    """
    la, lb, out = _parse_spec(spec)
    _check_extents(spec, la, lb, a.data, b.data)
    data = _fast_einsum(la, lb, out, a.data, b.data)
    if data.ndim == 0:
        data = data.reshape(1)

    def back(g):
        if not out:
            g = g.reshape(())
        if _tracked(a):
            _accumulate(a, _einsum_partial(g, out, b.data, lb, la, a.data.shape))
        if _tracked(b):
            _accumulate(b, _einsum_partial(g, out, a.data, la, lb, b.data.shape))
    return _result(data, (a, b), back)


def softmax_last(x):
    """Softmax along the last axis. Rows consisting entirely of mask
    values return all zeros instead of NaN.
    """
    data = x.data
    if np.isnan(data).any():
        raise ValueError("softmax_last: NaN in input")
    m = data.max(axis=-1, keepdims=True)
    e = np.exp(data - m)
    s = e.sum(axis=-1, keepdims=True)
    y = e / s
    dead = m <= _MASKED_ROW_THRESHOLD
    if dead.any():
        y = np.where(dead, 0.0, y)

    def back(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, y * (g - dot))
    return _result(y, (x,), back)


def log_softmax_last(x):
    data = x.data
    m = data.max(axis=-1, keepdims=True)
    shifted = data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    sm = np.exp(y)

    def back(g):
        _accumulate(x, g - sm * g.sum(axis=-1, keepdims=True))
    return _result(y, (x,), back)


def log(x):
    data = np.log(x.data)
    def back(g):
        _accumulate(x, g / x.data)
    return _result(data, (x,), back)


def relu(x):
    data = np.maximum(x.data, 0.0)
    def back(g):
        _accumulate(x, g * (x.data > 0))
    return _result(data, (x,), back)


def tsum(x):
    """Sum of all entries, as a scalar tensor (shape [1])."""
    data = np.array([x.data.sum()])
    def back(g):
        _accumulate(x, np.full_like(x.data, g[0]))
    return _result(data, (x,), back)


def sum_last(x):
    """Sum over the last axis."""
    data = x.data.sum(axis=-1)
    if data.ndim == 0:
        data = data.reshape(1)
    def back(g):
        if x.data.ndim == 1:
            _accumulate(x, np.full_like(x.data, g[0]))
        else:
            _accumulate(x, np.broadcast_to(g[..., None], x.data.shape))
    return _result(data, (x,), back)


def reshape(x, shape):
    shape = tuple(shape)
    data = x.data.reshape(shape)
    def back(g):
        _accumulate(x, g.reshape(x.data.shape))
    return _result(data, (x,), back)


def transpose(x, axes):
    axes = tuple(axes)
    data = np.ascontiguousarray(np.transpose(x.data, axes))
    inv = np.argsort(axes)
    def back(g):
        _accumulate(x, np.transpose(g, inv))
    return _result(data, (x,), back)


def concat(tensors, axis):
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)
    return _result(data, tuple(tensors), back)


def slice_axis(x, axis, start, stop):
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = x.data[idx].copy()
    def back(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        _accumulate(x, full)
    return _result(data, (x,), back)


def embed(table, ids):
    """Row lookup: out[..., :] = table[ids[...], :]. Gradient scatter-adds."""
    ids = np.asarray(ids)
    if ids.max(initial=-1) >= table.data.shape[0] or ids.min(initial=0) < 0:
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}) in lookup")
    data = table.data[ids]
    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        _accumulate(table, gt)
    return _result(data, (table,), back)


def gather_last(x, ids):
    """Pick one entry along the last axis per leading index."""
    ids = np.asarray(ids)
    data = np.take_along_axis(x.data, ids[..., None], axis=-1)[..., 0]
    if data.ndim == 0:
        data = data.reshape(1)
    def back(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, ids[..., None], g.reshape(ids.shape + (1,)), axis=-1)
        _accumulate(x, full)
    return _result(data, (x,), back)


def layer_norm(x, gain, bias, eps=1e-5):
    """Layer normalization over the last axis with learned gain/bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def back(g):
        red = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=red))
        _accumulate(bias, g.sum(axis=red))
        dxhat = g * gain.data
        n = x.data.shape[-1]
        dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
        _accumulate(x, dx)
    return _result(data, (x, gain, bias), back)


def dropout(x, rate, rng):
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    data = x.data * keep
    def back(g):
        _accumulate(x, g * keep)
    return _result(data, (x,), back)
