"""Dense float64 tensors with reverse-mode differentiation.

Covers exactly the op set the localization model needs: elementwise
arithmetic, matmul, 'same' 2D/3D convolution, one fused GRU step
(`gru_cell`, convolution gates over a (D, h, w) state),
block average pooling, sigmoid/tanh/softmax, L2 normalization, global
max, binary cross-entropy and a few layout ops.  No broadcasting beyond
scalar-with-tensor; any other shape mismatch raises ShapeError, which
marks a bug in the calling code rather than bad data.
"""
from __future__ import annotations

import functools

import numpy as np

from .binfile import Reader, Writer


class ShapeError(Exception):
    """Operands of an op do not fit together: a bug in the calling code, not bad data."""


class GraphError(RuntimeError):
    pass


# op name -> one-line description; gradient checking walks this registry
OP_REGISTRY: dict[str, str] = {}

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
        t._backward_rule(t.grad)
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
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
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
    if bias.shape != (cout,):
        raise ShapeError(f"{op}: bias shape {bias.shape} != ({cout},)")

    n = int(np.prod(spatial))
    idx = _gather_index(spatial, ksizes)
    xd = x.data
    w2 = kernel.data.reshape(cout, -1)  # rows (cin, *ksizes) match the im2col rows

    out = (w2 @ _im2col(xd, idx)).reshape((cout,) + spatial) \
        + bias.data.reshape((cout,) + (1,) * ndim)

    # the columns are rebuilt here rather than kept: two training graphs are
    # alive at once, and holding their columns would raise peak memory
    def rule(g):
        g2 = g.reshape(cout, n)
        if kernel.requires_grad:
            _accum(kernel, (g2 @ _im2col(xd, idx).T).reshape(kernel.shape))
        _accum(bias, g2.sum(axis=1))
        if x.requires_grad:
            _accum(x, _col2im(w2.T @ g2, idx, x.shape))

    return _node(out, (x, kernel, bias), op, rule)


OP_REGISTRY["conv2d"] = "2D convolution, stride 1, zero-padded 'same'"


def conv2d(x, kernel, bias):
    return _conv_nd("conv2d", x, kernel, bias, 2)


OP_REGISTRY["conv3d"] = "3D convolution, stride 1, zero-padded 'same'"


def conv3d(x, kernel, bias):
    return _conv_nd("conv3d", x, kernel, bias, 3)


OP_REGISTRY["gru_cell"] = "one GRU step with 'same' convolution gates over a (D, h, w) state"


def gru_cell(x, h, w_update, b_update, w_reset, b_reset, w_cand, b_cand):
    """One GRU step as a single graph node.

    z = sigmoid(W_u [x; h] + b_u), r = sigmoid(W_r [x; h] + b_r),
    n = tanh(W_c [x; r h] + b_c), and the new state is (1 - z) h + z n,
    where each W is a (D, 2D, k, k) kernel of a 'same' convolution over the
    (D, h, w) state (a ConvGRU). A plain GRU over a (D,) vector is the case
    of a (D, 1, 1) state and 1x1 kernels.

    Forward and backward evaluate the numpy expressions of the composition
    of stacking [x; h], conv2d, add, sigmoid, tanh and mul in the same
    order, gradients accumulated as that graph accumulates them, so the
    results are bit-identical to it.
    """
    x, h = _as_tensor(x), _as_tensor(h)
    wu, bu, wr, br, wc, bc = (_as_tensor(t) for t in
                              (w_update, b_update, w_reset, b_reset, w_cand, b_cand))
    if x.shape != h.shape or x.data.ndim != 3:
        raise ShapeError(f"gru_cell: input {x.shape} and state {h.shape} must share "
                         f"a (D, h, w) shape")
    d = x.shape[0]
    wshape = (d, 2 * d) + wu.shape[2:]
    for w, b in ((wu, bu), (wr, br), (wc, bc)):
        if w.shape != wshape or b.shape != (d,):
            raise ShapeError(f"gru_cell: gate weight {w.shape} and bias {b.shape} "
                             f"!= {wshape} and ({d},)")
    if len(wshape) != 4 or any(k % 2 == 0 for k in wshape[2:]):
        raise ShapeError(f"gru_cell: kernels must be 2D with odd sizes, got {wshape}")

    idx = _gather_index(x.shape[1:], wshape[2:])
    cells = idx.shape[1]

    def gate(w, b, cols):
        return (w.data.reshape(d, -1) @ cols).reshape(x.shape) + b.data.reshape(d, 1, 1)

    def gate_grads(w, cols, g):  # -> (dW, db, d[x; h])
        g2 = g.reshape(d, cells)
        return ((g2 @ cols.T).reshape(w.shape), g2.sum(axis=1),
                _col2im(w.data.reshape(d, -1).T @ g2, idx, xh.shape))

    xd, hd = x.data, h.data
    xh = np.concatenate([xd, hd], axis=0)
    xh_cols = _im2col(xh, idx)  # shared by the update and reset gates
    pre_z = gate(wu, bu, xh_cols)
    pre_r = gate(wr, br, xh_cols)
    z = 1.0 / (1.0 + np.exp(-pre_z))
    r = 1.0 / (1.0 + np.exp(-pre_r))
    xrh = np.concatenate([xd, r * hd], axis=0)
    pre_n = gate(wc, bc, _im2col(xrh, idx))
    for name, pre in (("update", pre_z), ("reset", pre_r), ("candidate", pre_n)):
        if not np.isfinite(pre).all():
            raise ValueError(f"gru_cell: {name} gate pre-activation must be finite")
    n = np.tanh(pre_n)
    keep = 1.0 - z
    out = keep * hd + z * n

    # as in _conv_nd, the columns are rebuilt rather than kept
    def rule(g):
        g_pre_z = (g * n - g * hd) * z * (1.0 - z)
        g_pre_n = g * z * (1.0 - n * n)
        dwc, dbc, dxrh = gate_grads(wc, _im2col(xrh, idx), g_pre_n)
        g_rh = dxrh[d:]
        g_pre_r = g_rh * hd * r * (1.0 - r)
        xh_cols = _im2col(xh, idx)
        dwr, dbr, dxh_r = gate_grads(wr, xh_cols, g_pre_r)
        dwu, dbu, dxh_u = gate_grads(wu, xh_cols, g_pre_z)
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


def l2_normalize(x, axis):
    x = _as_tensor(x)
    eps = 1e-12  # keeps an all-zero slice's norm above 0
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


OP_REGISTRY["bce_loss"] = ("binary cross-entropy of logits against a constant {0,1} target, "
                           "summed over elements")


def bce_loss(logits, target):
    """Sum of -t log sigmoid(x) - (1 - t) log(1 - sigmoid(x)) over logits x.

    Written max(x, 0) - x t + log1p(exp(-|x|)), so a logit whose sigmoid
    rounds to 0 or 1 still gives a finite loss and gradient sigmoid(x) - t.
    """
    x = _as_tensor(logits)
    t = np.asarray(target, dtype=np.float64)
    if t.shape != x.shape:
        raise ShapeError(f"bce_loss: target shape {t.shape} != logit shape {x.shape}")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("bce_loss: targets must be 0 or 1")
    xd = x.data
    e = np.exp(-np.abs(xd))
    out = float(np.sum(np.maximum(xd, 0.0) - xd * t + np.log1p(e)))

    def rule(g):
        sig = np.where(xd >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        _accum(x, float(g) * (sig - t))

    return _node(out, (x,), "bce_loss", rule)


# ---------------------------------------------------------------------------
# layout ops


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


class Parameter(Tensor):
    """Named trainable tensor with Adam moment accumulators."""

    def __init__(self, name, data):
        super().__init__(np.array(data, dtype=np.float64), requires_grad=True)
        self.name = name
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.step_count = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def adam_step(params, lr):
    """One Adam update with bias correction. Parameters without a gradient are left untouched."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
    for p in params:
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"parameter {p.name}: gradient shape {g.shape} != {p.data.shape}")
        p.step_count += 1
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * g * g
        m_hat = p.m / (1.0 - beta1 ** p.step_count)
        v_hat = p.v / (1.0 - beta2 ** p.step_count)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(fn, inputs, component_indices=None):
    """Compare analytic gradients of a scalar-valued composition to central differences.

    fn maps the list of input tensors to a scalar Tensor. Relative error uses
    max(1, |analytic|, |numeric|) as denominator. component_indices optionally
    restricts which flat components of each input are probed (per-input list).
    """
    step = 1e-5  # central-difference half-width
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
# checkpoint I/O (AVWT): parameter count, then per parameter name, shape, values

CHECKPOINT_MAGIC = b"AVWT"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params):
    with Writer(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as out:
        out.pack("I", len(params))
        for p in params:
            out.text(p.name)
            out.pack(f"B{p.data.ndim}I", p.data.ndim, *p.data.shape)
            out.array(p.data, "<f8")


def load_checkpoint(path):
    """Mapping parameter name -> float64 array; a defect raises FormatError."""
    reader = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    out = {}
    for _ in range(reader.unpack("I")[0]):
        name = reader.text("parameter name")
        (rank,) = reader.unpack("B")
        out[name] = reader.array("<f8", reader.unpack(f"{rank}I"),
                                 f"value of parameter {name!r}")
    reader.end("the last parameter")
    return out
