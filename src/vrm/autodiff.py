"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is intentionally small: elementwise arithmetic, matmul,
reductions, shape moves, and the fused numeric ops the distillation
losses are built from (softmax, normalized differences, Huber).
Storage and vectorized arithmetic are numpy; the tape is our own.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError, ParameterError, UsageError

_grad_enabled = True


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class _Node:
    """One recorded primitive: its inputs and the rule that maps the
    output gradient to input gradients."""

    __slots__ = ("inputs", "grad_fn", "op")

    def __init__(self, inputs, grad_fn, op):
        self.inputs = inputs
        self.grad_fn = grad_fn
        self.op = op


class Tensor:
    """Dense n-dimensional float64 array plus autodiff bookkeeping.

    Tensors are immutable values once constructed: ops return new
    tensors and never write into their inputs.  ``grad`` is populated
    by :func:`backward` for every tensor with ``requires_grad=True``.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "_backward_spent")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise InputError("tensor data must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None
        self._backward_spent = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __float__(self):
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def detach(self) -> "Tensor":
        """A view of the same data with no tape history."""
        return Tensor(self.data, requires_grad=False)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(_coerce(other), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, axes=None):
        return transpose(self, axes)

    @property
    def T(self):
        return transpose(self, None)


class Tape:
    """Topologically ordered record of the primitives reachable from one
    output tensor.  Inputs always precede the ops that consume them, so
    replaying the list in reverse visits nodes in reverse topological
    order and every tensor's gradient is complete before it is read."""

    def __init__(self, nodes):
        self.nodes = nodes

    @staticmethod
    def trace(root: Tensor) -> "Tape":
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            if t.node is not None:
                for inp in t.node.inputs:
                    if id(inp) not in seen:
                        stack.append((inp, False))
        return Tape(order)


def backward(loss: Tensor) -> dict:
    """Reverse-mode sweep from a scalar loss.

    Populates ``.grad`` on every requires_grad tensor reachable from
    ``loss`` and returns those gradients as an id-keyed map.  A second
    backward through the same output is an error; rebuild the graph
    (recompute the loss) to differentiate again.
    """
    if loss.size != 1:
        raise UsageError("backward expects a scalar loss")
    if loss.node is None and not loss.requires_grad:
        raise UsageError("loss was not recorded on an active tape")
    if loss._backward_spent:
        raise UsageError("backward already ran for this output")
    loss._backward_spent = True

    tape = Tape.trace(loss)
    pending = {id(loss): np.ones_like(loss.data)}
    computed = {}
    for t in reversed(tape.nodes):
        g = pending.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g
            computed[id(t)] = g
        if t.node is None:
            continue
        for inp, gi in zip(t.node.inputs, t.node.grad_fn(g)):
            if gi is None:
                continue
            if not (inp.requires_grad or inp.node is not None):
                continue
            key = id(inp)
            if key in pending:
                pending[key] = pending[key] + gi
            else:
                pending[key] = gi
    return computed


# -- op plumbing ------------------------------------------------------


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(arr, inputs, grad_fn, op) -> Tensor:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out._backward_spent = False
    out.requires_grad = _grad_enabled and any(t.requires_grad for t in inputs)
    out.node = _Node(tuple(inputs), grad_fn, op) if out.requires_grad else None
    return out


def _unbroadcast(grad, shape):
    """Sum a gradient down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise and linear algebra ------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(out, (a, b), grad_fn, "add")


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data * b.data

    def grad_fn(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _result(out, (a, b), grad_fn, "mul")


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise UsageError("matmul supports 2-D operands only")
    out = a.data @ b.data

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _result(out, (a, b), grad_fn, "matmul")


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` as one tape node, with the arithmetic of matmul then
    add, so the value and the gradients are bit-identical to theirs."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.ndim != 2 or w.ndim != 2:
        raise UsageError("affine supports 2-D operands only")
    out = x.data @ w.data + b.data

    def grad_fn(g):
        # a network's input carries no gradient, so none is formed for it
        gx = g @ w.data.T if x.requires_grad or x.node is not None else None
        return gx, x.data.T @ g, _unbroadcast(g, b.shape)

    return _result(out, (x, w, b), grad_fn, "affine")


def relu(x) -> Tensor:
    x = _coerce(x)
    out = np.maximum(x.data, 0.0)

    def grad_fn(g):
        return (g * (x.data > 0.0),)

    return _result(out, (x,), grad_fn, "relu")


def tanh(x) -> Tensor:
    x = _coerce(x)
    out = np.tanh(x.data)

    def grad_fn(g):
        return (g * (1.0 - out * out),)

    return _result(out, (x,), grad_fn, "tanh")


def exp(x) -> Tensor:
    x = _coerce(x)
    out = np.exp(x.data)

    def grad_fn(g):
        return (g * out,)

    return _result(out, (x,), grad_fn, "exp")


# -- reductions and shape moves ----------------------------------------


def _expand_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        newshape = tuple(1 if i in axes else n for i, n in enumerate(shape))
        g = g.reshape(newshape)
    return np.broadcast_to(g, shape)


def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = _coerce(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        return (_expand_reduced(g, x.shape, axis, keepdims).copy(),)

    return _result(np.asarray(out), (x,), grad_fn, "sum")


def tmean(x, axis=None, keepdims=False) -> Tensor:
    x = _coerce(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.size if axis is None else x.data.size // out.size

    def grad_fn(g):
        return (_expand_reduced(g, x.shape, axis, keepdims) / count,)

    return _result(np.asarray(out), (x,), grad_fn, "mean")


def reshape(x, shape) -> Tensor:
    x = _coerce(x)
    out = x.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(x.shape),)

    return _result(out, (x,), grad_fn, "reshape")


def transpose(x, axes=None) -> Tensor:
    x = _coerce(x)
    out = np.transpose(x.data, axes)
    inv = None if axes is None else tuple(np.argsort(axes))

    def grad_fn(g):
        return (np.transpose(g, inv),)

    return _result(out, (x,), grad_fn, "transpose")


def row_slice(x, start, stop) -> Tensor:
    x = _coerce(x)
    out = x.data[start:stop].copy()

    def grad_fn(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return (full,)

    return _result(out, (x,), grad_fn, "row_slice")


# -- fused numeric ops --------------------------------------------------


def softmax(z, axis=-1, tau=1.0) -> Tensor:
    """Temperature-scaled softmax along ``axis``, stabilized by
    max-subtraction so the result is exact under per-slice logit shifts."""
    if tau <= 0:
        raise ParameterError("softmax temperature must be positive")
    z = _coerce(z)
    u = z.data / tau
    u = u - u.max(axis=axis, keepdims=True)
    e = np.exp(u)
    p = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        return ((g - inner) * p / tau,)

    return _result(p, (z,), grad_fn, "softmax")


def log_softmax(z, axis=-1, tau=1.0) -> Tensor:
    if tau <= 0:
        raise ParameterError("softmax temperature must be positive")
    z = _coerce(z)
    u = z.data / tau
    u = u - u.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(u).sum(axis=axis, keepdims=True))
    lsm = u - lse

    def grad_fn(g):
        p = np.exp(lsm)
        return ((g - p * g.sum(axis=axis, keepdims=True)) / tau,)

    return _result(lsm, (z,), grad_fn, "log_softmax")


DEFAULT_NORM_EPS = 1e-12


def l2_normalize(x, axis=-1) -> Tensor:
    """Unit-normalize each slice along ``axis``.

    Slices whose Euclidean norm is below ``DEFAULT_NORM_EPS`` map to the
    all-zero vector and receive zero gradient: a degenerate difference
    carries no relation, and the true derivative blows up there anyway.
    A slice whose squared norm overflows, which would map to zero too,
    raises NumericError instead.
    """
    x = _coerce(x)
    y, n_safe, dead = _unit_fibers(x.data, axis, "l2_normalize")

    def grad_fn(g):
        return (_unit_fibers_grad(g, y, n_safe, dead, axis),)

    return _result(y, (x,), grad_fn, "l2_normalize")


def _unit_fibers(x, axis, op):
    """The array rule behind :func:`l2_normalize`, for fused ops that
    normalize an intermediate they never put on the tape.  Returns the
    unit fibers and the saved state :func:`_unit_fibers_grad` needs: the
    guarded norms and the dead fibers, None when every fiber is live.
    Raises NumericError naming ``op`` when a squared norm overflows."""
    # the squares' buffer (in x's layout) then takes y
    sq = np.multiply(x, x)
    n = np.sqrt(np.add.reduce(sq, axis=axis, keepdims=True))
    # guarding and zeroing the dead fibers changes nothing when there are none
    # (a NaN norm is dead, and fails the test)
    if np.minimum.reduce(n, axis=None, initial=np.inf) >= DEFAULT_NORM_EPS:
        dead, n_safe = None, n
    else:
        live = n >= DEFAULT_NORM_EPS
        dead, n_safe = ~live, np.where(live, n, 1.0)
    # n_safe holds no NaN, so this is np.isfinite(n_safe).all()
    if not np.maximum.reduce(n_safe, axis=None, initial=0.0) < np.inf:
        raise NumericError(f"{op} overflowed a squared norm")
    y = np.divide(x, n_safe, out=sq)
    if dead is not None:
        np.copyto(y, 0.0, where=dead)
    return y, n_safe, dead


def _unit_fibers_grad(g, y, n_safe, dead, axis):
    """Gradient of :func:`_unit_fibers` with respect to its input ``x``:
    (g - y <g, y>) / |x| on live fibers, zero on the ``dead`` ones."""
    gx = np.multiply(g, y)
    inner = np.add.reduce(gx, axis=axis, keepdims=True)
    np.multiply(y, inner, out=gx)
    np.subtract(g, gx, out=gx)
    gx /= n_safe
    if dead is not None:
        np.copyto(gx, 0.0, where=dead)
    return gx


# Size of one row block of the [n, n, f] edge-shaped arithmetic: a block
# and its few temporaries stay in a core's L2 cache (2 MiB or more).
_BLOCK_BYTES = 256 * 1024


def _row_blocks(n_rows, row_elems):
    """Consecutive slices covering ``range(n_rows)`` in order, each about
    ``_BLOCK_BYTES`` of rows of ``row_elems`` float64 values; a single
    slice when the whole array fits in one block, an empty one too."""
    step = max(1, _BLOCK_BYTES // (8 * row_elems) if row_elems else n_rows)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, max(n_rows, 1), step)]


def huber(a, b, delta=1.0) -> Tensor:
    """Elementwise Huber penalty of the residual a - b.

    Quadratic 0.5 r^2 for |r| <= delta, linear delta (|r| - delta/2)
    outside; continuous with continuous first derivative at the joint.
    """
    # a NaN delta fails this test too
    if not delta > 0:
        raise ParameterError("huber delta must be positive")
    a, b = _coerce(a), _coerce(b)
    r = a.data - b.data
    absr = np.abs(r)
    out = np.where(absr <= delta, 0.5 * r * r, delta * (absr - 0.5 * delta))
    dr = np.clip(r, -delta, delta)

    def grad_fn(g):
        return _unbroadcast(g * dr, a.shape), _unbroadcast(-g * dr, b.shape)

    return _result(out, (a, b), grad_fn, "huber")


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    logits = _coerce(logits)
    if logits.ndim != 2:
        raise InputError("cross_entropy expects [batch, classes] logits")
    y = np.asarray(labels)
    n, c = logits.shape
    if y.shape != (n,) or y.min() < 0 or y.max() >= c:
        raise InputError("labels must be integers in [0, classes)")
    u = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(u).sum(axis=1, keepdims=True))
    lsm = u - lse
    out = -lsm[np.arange(n), y].mean()

    def grad_fn(g):
        p = np.exp(lsm)
        p[np.arange(n), y] -= 1.0
        return (g * p / n,)

    return _result(np.asarray(out), (logits,), grad_fn, "cross_entropy")


def kld(teacher_logits, student_logits, tau=1.0) -> Tensor:
    """Temperature-softened KL divergence, teacher relative to student,
    scaled by tau^2 and averaged over the batch."""
    if tau <= 0:
        raise ParameterError("kld temperature must be positive")
    t, s = _coerce(teacher_logits), _coerce(student_logits)
    if t.shape != s.shape or t.ndim != 2:
        raise InputError("kld expects matching [batch, classes] logits")
    lt = log_softmax(t, axis=1, tau=tau)
    ls = log_softmax(s, axis=1, tau=tau)
    pt = exp(lt)
    per_elem = mul(pt, add(lt, mul(ls, -1.0)))
    return mul(tsum(per_elem), tau * tau / t.shape[0])


def finite_diff_check(f, x, h=1e-5) -> float:
    """Max relative disagreement between the reverse-mode gradient of
    ``f`` at ``x`` and a central-difference estimate with step ``h``.

    The finite-difference side is computed with no tape at all, so it is
    independent of the machinery it checks.  A non-finite entry on either
    side gives inf, so a NaN gradient fails any tolerance.
    """
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    xt = Tensor(base.copy(), requires_grad=True)
    out = f(xt)
    if out.size != 1:
        raise UsageError("finite_diff_check needs a scalar-valued function")
    backward(out)
    ad = np.zeros_like(base) if xt.grad is None else xt.grad

    fd = np.empty(base.size)
    with no_grad():
        flat = base.ravel()
        for i in range(flat.size):
            xp = base.copy()
            xp.flat[i] = flat[i] + h
            xm = base.copy()
            xm.flat[i] = flat[i] - h
            fd[i] = (f(Tensor(xp)).item() - f(Tensor(xm)).item()) / (2.0 * h)
    if not (np.isfinite(fd).all() and np.isfinite(ad).all()):
        return np.inf
    rel = np.abs(fd - ad.ravel()) / np.maximum(1.0, np.abs(fd))
    return float(rel.max())
