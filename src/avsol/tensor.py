"""Dense float64 tensors with reverse-mode differentiation.

Covers exactly the op set the localization model needs: elementwise
arithmetic, matmul, 'same' 2D/3D convolution, one fused GRU step
(`gru_cell`, convolution or matrix-product gates), block average pooling,
sigmoid/tanh/softmax, L2 normalization, global max, binary
cross-entropy and a few layout ops.  No broadcasting beyond
scalar-with-tensor; any other shape mismatch raises ShapeError, which
marks a bug in the calling code rather than bad data.
"""
from __future__ import annotations

import functools
import struct

import numpy as np


class ShapeError(Exception):
    """Operands of an op do not fit together: a bug in the calling code, not bad data."""


class GraphError(RuntimeError):
    pass


# op name -> one-line description; gradient checking walks this registry
OP_REGISTRY: dict[str, str] = {}

# test hook: (op_name, factor). The incoming gradient of every node produced
# by the named op is scaled before its backward rule runs, so a gradient
# check over that op must fail. Never set outside tests/CLI negative control.
_GRAD_TAMPER: tuple[str, float] | None = None


def set_grad_tamper(op_name, factor):
    global _GRAD_TAMPER
    _GRAD_TAMPER = None if op_name is None else (op_name, float(factor))


class Tensor:
    """A node in the differentiation graph holding a float64 ndarray."""

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_rule = None
        self._op = None
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # sugar; scalars are the only permitted broadcast
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(-self, other)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data, parents, op, backward_rule):
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_rule = backward_rule
        out._op = op
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    t.grad = g.copy() if t.grad is None else t.grad + g


def backward(loss):
    """Populate ``.grad`` of every reachable tensor that requires it.

    One backward per forward: a second call on the same loss raises.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._spent:
        raise GraphError("backward already ran for this graph; rebuild the forward pass")

    topo = []
    seen = set()
    stack = [(loss, iter(loss._parents))]
    seen.add(id(loss))
    # iterative DFS: recurrences produce graphs deeper than the recursion limit
    while stack:
        node, it = stack[-1]
        child = next(it, None)
        if child is None:
            topo.append(node)
            stack.pop()
        elif id(child) not in seen:
            seen.add(id(child))
            stack.append((child, iter(child._parents)))

    for t in topo:
        t.grad = None
    loss.grad = np.ones_like(loss.data)
    for t in reversed(topo):
        if t._backward_rule is None or t.grad is None:
            continue
        g = t.grad
        if _GRAD_TAMPER is not None and t._op == _GRAD_TAMPER[0]:
            g = g * _GRAD_TAMPER[1]
        t._backward_rule(g)
    loss._spent = True


# ---------------------------------------------------------------------------
# elementwise / linear algebra


def _check_elementwise(op, a, b):
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(shape, g):
    # undo a scalar broadcast
    if g.shape != shape:
        g = np.asarray(g.sum()).reshape(shape)
    return g


OP_REGISTRY["add"] = "elementwise sum (scalar broadcast allowed)"


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("add", a, b)

    def rule(g):
        _accum(a, _reduce_to(a.shape, g))
        _accum(b, _reduce_to(b.shape, g))

    return _node(a.data + b.data, (a, b), "add", rule)


OP_REGISTRY["mul"] = "Hadamard product (scalar broadcast allowed)"


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("mul", a, b)

    def rule(g):
        _accum(a, _reduce_to(a.shape, g * b.data))
        _accum(b, _reduce_to(b.shape, g * a.data))

    return _node(a.data * b.data, (a, b), "mul", rule)


OP_REGISTRY["matmul"] = "matrix/vector product (1D and 2D operands)"


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul: operands must be 1D or 2D, got {a.shape} and {b.shape}")
    ka = a.shape[-1]
    kb = b.shape[0]
    if ka != kb:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def rule(g):
        a2 = a.data.reshape(1, -1) if a.data.ndim == 1 else a.data
        b2 = b.data.reshape(-1, 1) if b.data.ndim == 1 else b.data
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        _accum(a, (g2 @ b2.T).reshape(a.shape))
        _accum(b, (a2.T @ g2).reshape(b.shape))

    return _node(out, (a, b), "matmul", rule)


# ---------------------------------------------------------------------------
# convolution ('same' zero padding, stride 1, odd kernels only), computed as
# im2col matrix multiplies (Chellapilla, Puri & Simard, 2006)


@functools.lru_cache(maxsize=32)
def _gather_index(spatial, ksizes):
    """Flat input position read by each kernel tap at each output cell.

    Shape (prod(ksizes), prod(spatial)). Taps that fall into the zero padding
    read index prod(spatial), a zero column appended to the flattened input.
    """
    ndim = len(spatial)
    taps = np.indices(ksizes).reshape(ndim, -1, 1) - np.array(ksizes).reshape(ndim, 1, 1) // 2
    pos = np.indices(spatial).reshape(ndim, 1, -1) + taps  # (ndim, taps, cells)
    inside = np.all((pos >= 0) & (pos < np.array(spatial).reshape(ndim, 1, 1)), axis=0)
    n = int(np.prod(spatial))
    idx = np.where(inside, np.ravel_multi_index(tuple(pos), spatial, mode="clip"), n)
    idx.flags.writeable = False
    return idx


def _im2col(xd, idx):
    """(channels * taps, cells) columns of a 'same' convolution input."""
    cin, n = xd.shape[0], idx.shape[1]
    flat = np.concatenate([xd.reshape(cin, n), np.zeros((cin, 1))], axis=1)
    return np.take(flat, idx.ravel(), axis=1).reshape(-1, n)


def _col2im(dcol, idx, shape):
    """Adjoint of _im2col: sums each column entry onto the input cell it read."""
    cin, n = shape[0], idx.shape[1]
    scatter = idx + (n + 1) * np.arange(cin).reshape(cin, 1, 1)
    dflat = np.bincount(scatter.ravel(), weights=dcol.ravel(), minlength=cin * (n + 1))
    return dflat.reshape(cin, n + 1)[:, :n].reshape(shape)


def _conv_nd(op, x, kernel, bias, ndim):
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim != ndim + 1 or kernel.data.ndim != ndim + 2:
        raise ShapeError(f"{op}: expected input rank {ndim + 1} and kernel rank {ndim + 2}, "
                         f"got {x.shape} and {kernel.shape}")
    cin, spatial = x.shape[0], x.shape[1:]
    cout, cin_k = kernel.shape[0], kernel.shape[1]
    ksizes = kernel.shape[2:]
    if cin != cin_k:
        raise ShapeError(f"{op}: input channels {cin} != kernel channels {cin_k}")
    if any(k % 2 == 0 for k in ksizes):
        raise ShapeError(f"{op}: kernel sizes must be odd, got {ksizes}")
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"{op}: bias shape {bias.shape} != ({cout},)")

    n = int(np.prod(spatial))
    idx = _gather_index(spatial, ksizes)
    xd = x.data
    w2 = kernel.data.reshape(cout, -1)  # rows (cin, *ksizes) match the im2col rows

    out = (w2 @ _im2col(xd, idx)).reshape((cout,) + spatial)
    if bias is not None:
        out = out + bias.data.reshape((cout,) + (1,) * ndim)

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    # the columns are rebuilt here rather than kept: two training graphs are
    # alive at once, and holding their columns would raise peak memory
    def rule(g):
        g2 = g.reshape(cout, n)
        if kernel.requires_grad:
            _accum(kernel, (g2 @ _im2col(xd, idx).T).reshape(kernel.shape))
        if bias is not None:
            _accum(bias, g2.sum(axis=1))
        if x.requires_grad:
            _accum(x, _col2im(w2.T @ g2, idx, x.shape))

    return _node(out, parents, op, rule)


OP_REGISTRY["conv2d"] = "2D convolution, stride 1, zero-padded 'same'"


def conv2d(x, kernel, bias=None):
    return _conv_nd("conv2d", x, kernel, bias, 2)


OP_REGISTRY["conv3d"] = "3D convolution, stride 1, zero-padded 'same'"


def conv3d(x, kernel, bias=None):
    return _conv_nd("conv3d", x, kernel, bias, 3)


OP_REGISTRY["gru_cell"] = ("one GRU step: 'same' convolution gates for a (D, h, w) state, "
                           "matrix-product gates for a (D,) state")


def gru_cell(x, h, w_update, b_update, w_reset, b_reset, w_cand, b_cand):
    """One GRU step as a single graph node.

    z = sigmoid(W_u [x; h] + b_u), r = sigmoid(W_r [x; h] + b_r),
    n = tanh(W_c [x; r h] + b_c), and the new state is (1 - z) h + z n.
    For a (D, h, w) state each W is a (D, 2D, k, k) kernel of a 'same'
    convolution (a ConvGRU); for a (D,) state it is a (D, 2D) matrix.

    Forward and backward evaluate the numpy expressions of the composition
    of concat, conv2d or matmul, add, sigmoid, tanh and mul in the same
    order, gradients accumulated as that graph accumulates them, so the
    results are bit-identical to it.
    """
    x, h = _as_tensor(x), _as_tensor(h)
    wu, bu, wr, br, wc, bc = (_as_tensor(t) for t in
                              (w_update, b_update, w_reset, b_reset, w_cand, b_cand))
    if x.shape != h.shape or x.data.ndim not in (1, 3):
        raise ShapeError(f"gru_cell: input {x.shape} and state {h.shape} must share "
                         f"a (D,) or (D, h, w) shape")
    d = x.shape[0]
    grid = x.data.ndim == 3
    wshape = (d, 2 * d) + (wu.shape[2:] if grid else ())
    for w, b in ((wu, bu), (wr, br), (wc, bc)):
        if w.shape != wshape or b.shape != (d,):
            raise ShapeError(f"gru_cell: gate weight {w.shape} and bias {b.shape} "
                             f"!= {wshape} and ({d},)")
    if grid and (len(wshape) != 4 or any(k % 2 == 0 for k in wshape[2:])):
        raise ShapeError(f"gru_cell: kernels must be 2D with odd sizes, got {wshape}")

    if grid:
        idx = _gather_index(x.shape[1:], wshape[2:])
        cells = idx.shape[1]

        def operand(v):  # what a gate's weights multiply: the im2col columns
            return _im2col(v, idx)

        def gate(w, b, cols):
            return (w.data.reshape(d, -1) @ cols).reshape(x.shape) + b.data.reshape(d, 1, 1)

        def gate_grads(w, cols, g):  # -> (dW, db, d[x; h])
            g2 = g.reshape(d, cells)
            w2 = w.data.reshape(d, -1)
            return ((g2 @ cols.T).reshape(w.shape), g2.sum(axis=1),
                    _col2im(w2.T @ g2, idx, xh.shape))
    else:
        def operand(v):
            return v

        def gate(w, b, v):
            return w.data @ v + b.data

        def gate_grads(w, v, g):
            g2 = g.reshape(d, 1)
            return (g2 @ v.reshape(-1, 1).T).reshape(w.shape), g, (w.data.T @ g2).reshape(v.shape)

    hd = h.data
    xh = np.concatenate([x.data, hd], axis=0)
    xh_op = operand(xh)  # shared by the update and reset gates
    pre_z = gate(wu, bu, xh_op)
    pre_r = gate(wr, br, xh_op)
    z = 1.0 / (1.0 + np.exp(-pre_z))
    r = 1.0 / (1.0 + np.exp(-pre_r))
    xrh = np.concatenate([x.data, r * hd], axis=0)
    pre_n = gate(wc, bc, operand(xrh))
    for name, pre in (("update", pre_z), ("reset", pre_r), ("candidate", pre_n)):
        if not np.isfinite(pre).all():
            raise ValueError(f"gru_cell: {name} gate pre-activation must be finite")
    n = np.tanh(pre_n)
    keep = 1.0 - z
    out = keep * hd + z * n

    # as in _conv_nd, the operands are rebuilt rather than kept
    def rule(g):
        g_pre_z = (g * n - g * hd) * z * (1.0 - z)
        g_pre_n = g * z * (1.0 - n * n)
        dwc, dbc, dxrh = gate_grads(wc, operand(xrh), g_pre_n)
        g_rh = dxrh[d:]
        g_pre_r = g_rh * hd * r * (1.0 - r)
        xh_op = operand(xh)
        dwr, dbr, dxh_r = gate_grads(wr, xh_op, g_pre_r)
        dwu, dbu, dxh_u = gate_grads(wu, xh_op, g_pre_z)
        dxh = dxh_r + dxh_u
        for t, grad in ((wu, dwu), (bu, dbu), (wr, dwr), (br, dbr), (wc, dwc), (bc, dbc)):
            _accum(t, grad)
        _accum(x, dxrh[:d] + dxh[:d])
        _accum(h, (g_rh * r + g * keep) + dxh[d:])

    return _node(out, (x, h, wu, bu, wr, br, wc, bc), "gru_cell", rule)


OP_REGISTRY["avg_pool"] = "non-overlapping block average pooling, one factor per axis"


def avg_pool(x, factors):
    x = _as_tensor(x)
    factors = tuple(int(f) for f in factors)
    if len(factors) != x.data.ndim:
        raise ShapeError(f"avg_pool: {len(factors)} factors for rank-{x.data.ndim} input")
    if any(f < 1 or d % f for f, d in zip(factors, x.shape)):
        raise ShapeError(f"avg_pool: factors {factors} do not divide shape {x.shape}")
    out_shape = tuple(d // f for d, f in zip(x.shape, factors))
    split = []
    for d, f in zip(x.shape, factors):
        split.extend([d // f, f])
    blocks = x.data.reshape(split)
    out = blocks.mean(axis=tuple(range(1, 2 * x.data.ndim, 2)))
    n = int(np.prod(factors))

    def rule(g):
        dx = g / n
        for axis, f in enumerate(factors):
            dx = np.repeat(dx, f, axis=axis)
        _accum(x, dx)

    return _node(out, (x,), "avg_pool", rule)


# ---------------------------------------------------------------------------
# nonlinearities / reductions


OP_REGISTRY["sigmoid"] = "elementwise logistic function"


def sigmoid(x):
    x = _as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-x.data))

    def rule(g):
        _accum(x, g * y * (1.0 - y))

    return _node(y, (x,), "sigmoid", rule)


OP_REGISTRY["l2_normalize"] = "division by the L2 norm along one axis"


def l2_normalize(x, axis, eps=1e-12):
    x = _as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True) + eps)
    y = x.data / norm

    def rule(g):
        _accum(x, (g - y * (g * y).sum(axis=axis, keepdims=True)) / norm)

    return _node(y, (x,), "l2_normalize", rule)


OP_REGISTRY["tanh"] = "elementwise hyperbolic tangent"


def tanh(x):
    x = _as_tensor(x)
    y = np.tanh(x.data)

    def rule(g):
        _accum(x, g * (1.0 - y * y))

    return _node(y, (x,), "tanh", rule)


OP_REGISTRY["softmax"] = "softmax along one axis (max-shifted for stability)"


def softmax(x, axis):
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        _accum(x, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _node(y, (x,), "softmax", rule)


OP_REGISTRY["mean"] = "mean over all elements or one axis"


def mean(x, axis=None):
    x = _as_tensor(x)
    out = x.data.mean(axis=axis)
    n = x.data.size if axis is None else x.shape[axis]

    def rule(g):
        if axis is None:
            _accum(x, np.full(x.shape, float(g) / n))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape) / n)

    return _node(out, (x,), "mean", rule)


OP_REGISTRY["max_global"] = "maximum over all elements; ties route the gradient to the first maximal cell in row-major order"


def max_global(x):
    x = _as_tensor(x)
    idx = int(np.argmax(x.data))
    out = x.data.flat[idx]

    def rule(g):
        dx = np.zeros_like(x.data)
        dx.flat[idx] = float(g)
        _accum(x, dx)

    return _node(out, (x,), "max_global", rule)


OP_REGISTRY["bce_loss"] = "binary cross-entropy against a constant {0,1} target, summed over elements"


def bce_loss(pred, target):
    pred = _as_tensor(pred)
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.shape:
        raise ShapeError(f"bce_loss: target shape {t.shape} != prediction shape {pred.shape}")
    if not np.all((pred.data > 0.0) & (pred.data < 1.0)):
        raise ValueError("bce_loss: predictions must lie strictly inside (0, 1)")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("bce_loss: targets must be 0 or 1")
    p = pred.data
    out = float(np.sum(-t * np.log(p) - (1.0 - t) * np.log1p(-p)))

    def rule(g):
        _accum(pred, float(g) * (p - t) / (p * (1.0 - p)))

    return _node(out, (pred,), "bce_loss", rule)


# ---------------------------------------------------------------------------
# layout ops


OP_REGISTRY["concat"] = "concatenation along one axis"


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.data.ndim != len(ref) or any(
                i != axis and a != b for i, (a, b) in enumerate(zip(t.shape, ref))):
            raise ShapeError(f"concat: shape {t.shape} incompatible with {ref} along axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def rule(g):
        start = 0
        for t, n in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + n)
            _accum(t, g[tuple(sl)])
            start += n

    return _node(out, tuple(tensors), "concat", rule)


OP_REGISTRY["reshape"] = "reshape preserving row-major order"


def reshape(x, shape):
    x = _as_tensor(x)
    shape = tuple(shape)
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")

    def rule(g):
        _accum(x, g.reshape(x.shape))

    return _node(x.data.reshape(shape), (x,), "reshape", rule)


OP_REGISTRY["transpose"] = "axis permutation"


def transpose(x, axes):
    x = _as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of rank {x.data.ndim}")
    inv = np.argsort(axes)

    def rule(g):
        _accum(x, g.transpose(inv))

    return _node(x.data.transpose(axes), (x,), "transpose", rule)


OP_REGISTRY["take"] = "select one index along the leading axis"


def take(x, index):
    x = _as_tensor(x)
    index = int(index)
    if not 0 <= index < x.shape[0]:
        raise ShapeError(f"take: index {index} out of range for axis of length {x.shape[0]}")

    def rule(g):
        dx = np.zeros_like(x.data)
        dx[index] = g
        _accum(x, dx)

    return _node(x.data[index], (x,), "take", rule)


# ---------------------------------------------------------------------------
# parameters / optimizer


class Parameter:
    """Named trainable tensor with Adam moment accumulators."""

    def __init__(self, name, data):
        self.name = name
        self.tensor = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self.m = np.zeros_like(self.tensor.data)
        self.v = np.zeros_like(self.tensor.data)
        self.step_count = 0

    @property
    def data(self):
        return self.tensor.data

    @data.setter
    def data(self, value):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.tensor.data.shape:
            raise ShapeError(f"parameter {self.name}: cannot assign shape {value.shape} "
                             f"to {self.tensor.data.shape}")
        self.tensor.data = value

    @property
    def grad(self):
        return self.tensor.grad

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def adam_step(params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update with bias correction. Parameters without a gradient are left untouched."""
    for p in params:
        g = p.tensor.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"parameter {p.name}: gradient shape {g.shape} != {p.data.shape}")
        p.step_count += 1
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * g * g
        m_hat = p.m / (1.0 - beta1 ** p.step_count)
        v_hat = p.v / (1.0 - beta2 ** p.step_count)
        p.tensor.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(fn, inputs, step=1e-5, component_indices=None):
    """Compare analytic gradients of a scalar-valued composition to central differences.

    fn maps the list of input tensors to a scalar Tensor. Relative error uses
    max(1, |analytic|, |numeric|) as denominator. component_indices optionally
    restricts which flat components of each input are probed (per-input list).
    """
    for t in inputs:
        t.requires_grad = True
    loss = fn(inputs)
    backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    worst = 0.0
    for pos, (t, ga) in enumerate(zip(inputs, analytic)):
        flat = t.data.ravel()
        indices = range(flat.size) if component_indices is None else component_indices[pos]
        for idx in indices:
            orig = flat[idx]
            flat[idx] = orig + step
            fp = float(fn(inputs).data)
            flat[idx] = orig - step
            fm = float(fn(inputs).data)
            flat[idx] = orig
            numeric = (fp - fm) / (2.0 * step)
            a = ga.ravel()[idx]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# checkpoint I/O: magic "AVWT", version u16, count u32, then per parameter
# name length u16 + UTF-8 bytes, rank u8, dims u32 each, float64 row-major.

CHECKPOINT_MAGIC = b"AVWT"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params):
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HI", CHECKPOINT_VERSION, len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(struct.pack("<B", p.data.ndim))
            for d in p.data.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, count = struct.unpack_from("<HI", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    off = 10
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, off)
        off += 2
        name = raw[off:off + nlen].decode("utf-8")
        off += nlen
        (rank,) = struct.unpack_from("<B", raw, off)
        off += 1
        dims = struct.unpack_from(f"<{rank}I", raw, off)
        off += 4 * rank
        n = int(np.prod(dims)) if rank else 1
        out[name] = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(dims).copy()
        off += 8 * n
    return out


def restore_checkpoint(path, params):
    """Load a checkpoint into existing parameters, validating names and shapes."""
    state = load_checkpoint(path)
    names = {p.name for p in params}
    if set(state) != names:
        missing = sorted(names - set(state))
        extra = sorted(set(state) - names)
        raise CheckpointError(f"checkpoint mismatch: missing={missing} unexpected={extra}")
    for p in params:
        if state[p.name].shape != p.data.shape:
            raise CheckpointError(f"parameter {p.name}: checkpoint shape "
                                  f"{state[p.name].shape} != model shape {p.data.shape}")
        p.tensor.data = state[p.name]
