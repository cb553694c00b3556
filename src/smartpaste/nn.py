"""Dense-tensor reverse-mode autodiff core: vector/matrix ops, GRU cell,
element-wise and segment max pooling, softmax cross-entropy, and Adam.

The ops the encoders use take a vector of shape (H,) or a column batch of
shape (H, B), one example per column: `matmul`, `add_bias`, `gru_step` and
the element-wise ops work on either, `gather`, `columns` and `segment_max`
move and pool columns, and `dot` scores one vector against every column.

Wide (float64) precision is the default; tests quote all tolerances at wide
precision.  The tape is implicit: each Tensor records its parents and a
backward closure; Tensor.backward() replays them once in reverse topological
order.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

DTYPE = np.float64

CHECKPOINT_FORMAT_VERSION = 1


class ShapeError(Exception):
    pass


class EmptyInput(Exception):
    pass


class Tensor:
    """A dense array plus optional gradient buffer and autodiff linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "name")

    def __init__(self, data, requires_grad: bool = False,
                 parents: Tuple["Tensor", ...] = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None,
                 name: str = ""):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: Optional[np.ndarray] = None
        if not requires_grad:
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray):
        if self.grad is None:
            # a copy of its own: later gradients are added in place
            self.grad = np.array(g, dtype=DTYPE)
            if self.grad.shape != self.data.shape:
                raise ShapeError(f"gradient {self.grad.shape} for "
                                 f"{self.data.shape}")
        else:
            self.grad += g

    def backward(self):
        """Reverse sweep from this (scalar) tensor; visits each node once."""
        if self.data.shape != ():
            raise ShapeError("backward() requires a scalar output")
        topo: List[Tensor] = []
        seen = set()

        def visit(t: Tensor):
            stack = [(t, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    topo.append(node)
                    continue
                if id(node) in seen or not node.requires_grad:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for p in node._parents:
                    stack.append((p, False))

        visit(self)
        self.accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, name={self.name!r})"


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# --- primitive ops ----------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def bw(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return Tensor(a.data + b.data, parents=(a, b), backward=bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def bw(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(-g)

    return Tensor(a.data - b.data, parents=(a, b), backward=bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def bw(g):
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return Tensor(a.data * b.data, parents=(a, b), backward=bw)


def scale(a: Tensor, s: float) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a.accumulate(g * s)

    return Tensor(a.data * s, parents=(a,), backward=bw)


def matmul(w: Tensor, x: Tensor) -> Tensor:
    """W @ x for a vector x of shape (N,) or a column batch of shape (N, B)."""
    if w.data.ndim != 2 or x.data.ndim not in (1, 2) \
            or w.shape[1] != x.shape[0]:
        raise ShapeError(f"matmul: {w.shape} @ {x.shape}")

    def bw(g):
        if w.requires_grad:
            w.accumulate(np.outer(g, x.data) if x.data.ndim == 1
                         else g @ x.data.T)
        if x.requires_grad:
            x.accumulate(w.data.T @ g)

    return Tensor(w.data @ x.data, parents=(w, x), backward=bw)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x + b, the (H,) bias b broadcast over the columns of an (H, B) x."""
    if b.data.ndim != 1 or x.data.ndim not in (1, 2) \
            or x.shape[0] != b.shape[0]:
        raise ShapeError(f"add_bias: {x.shape} + {b.shape}")
    batched = x.data.ndim == 2

    def bw(g):
        if x.requires_grad:
            x.accumulate(g)
        if b.requires_grad:
            b.accumulate(g.sum(axis=1) if batched else g)

    return Tensor(x.data + (b.data[:, None] if batched else b.data),
                  parents=(x, b), backward=bw)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """a . b for two (H,) vectors; for an (H, K) b, the vector of the K
    inner products of a with the columns of b."""
    if a.data.ndim != 1 or b.data.ndim not in (1, 2) \
            or a.shape[0] != b.shape[0]:
        raise ShapeError(f"dot: shape mismatch {a.shape} vs {b.shape}")
    if b.data.ndim == 1:
        def bw(g):
            if a.requires_grad:
                a.accumulate(g * b.data)
            if b.requires_grad:
                b.accumulate(g * a.data)

        return Tensor(np.dot(a.data, b.data), parents=(a, b), backward=bw)

    def bw_columns(g):
        if a.requires_grad:
            a.accumulate(b.data @ g)
        if b.requires_grad:
            b.accumulate(np.outer(a.data, g))

    return Tensor(a.data @ b.data, parents=(a, b), backward=bw_columns)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Stack along the first axis: (H1,) + (H2,) -> (H1 + H2,), and
    (H1, B) + (H2, B) -> (H1 + H2, B)."""
    if not parts:
        raise EmptyInput("concat of no tensors")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate(g[lo:hi])

    return Tensor(np.concatenate([p.data for p in parts]),
                  parents=tuple(parts), backward=bw)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        if a.requires_grad:
            a.accumulate(g * out * (1.0 - out))

    return Tensor(out, parents=(a,), backward=bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate(g * (1.0 - out * out))

    return Tensor(out, parents=(a,), backward=bw)


def mean_of(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise EmptyInput("mean of no tensors")
    first = parts[0]
    for p in parts[1:]:
        _same_shape(first, p, "mean_of")
    k = float(len(parts))

    def bw(g):
        for p in parts:
            if p.requires_grad:
                p.accumulate(g / k)

    return Tensor(np.mean([p.data for p in parts], axis=0),
                  parents=tuple(parts), backward=bw)


def elementwise_max(parts: Sequence[Tensor]) -> Tensor:
    """Coordinate-wise max; the gradient routes to the argmax input per
    coordinate, ties resolved toward the lowest list index."""
    if not parts:
        raise EmptyInput("elementwise_max of no tensors")
    first = parts[0]
    for p in parts[1:]:
        _same_shape(first, p, "elementwise_max")
    stacked = np.stack([p.data for p in parts])
    argmax = np.argmax(stacked, axis=0)  # first occurrence wins ties
    out = np.take_along_axis(stacked, argmax[None], axis=0)[0]

    def bw(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                p.accumulate(g * (argmax == i))

    return Tensor(out, parents=tuple(parts), backward=bw)


def columns(parts: Sequence[Tensor]) -> Tensor:
    """Side-by-side stack of (H,) vectors (one column each) and (H, B)
    batches: (H, total columns)."""
    if not parts:
        raise EmptyInput("columns of no tensors")
    height = parts[0].shape[0]
    offsets = [0]
    for p in parts:
        if p.data.ndim not in (1, 2) or p.shape[0] != height:
            raise ShapeError(f"columns: {p.shape} next to height {height}")
        offsets.append(offsets[-1] + (1 if p.data.ndim == 1 else p.shape[1]))
    out = np.empty((height, offsets[-1]))
    for p, lo, hi in zip(parts, offsets, offsets[1:]):
        if p.data.ndim == 1:
            out[:, lo] = p.data
        else:
            out[:, lo:hi] = p.data

    def bw(g):
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            if p.requires_grad:
                p.accumulate(g[:, lo] if p.data.ndim == 1 else g[:, lo:hi])

    return Tensor(out, parents=tuple(parts), backward=bw)


def gather(x: Tensor, index) -> Tensor:
    """Columns of an (H, N) tensor: an int index gives that column as an
    (H,) vector, a sequence of indices an (H, len(index)) batch.  Repeated
    indices are allowed; their gradients add up in the source column."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather: needs an (H, N) tensor, got {x.shape}")
    if not isinstance(index, (int, np.integer)):
        index = np.asarray(index, dtype=np.intp)

    def bw(g):
        if x.requires_grad:
            grad = np.zeros_like(x.data)
            np.add.at(grad, (slice(None), index), g)
            x.accumulate(grad)

    return Tensor(x.data[:, index], parents=(x,), backward=bw)


def segment_max(x: Tensor, starts: Sequence[int]) -> Tensor:
    """Row-wise max over consecutive column segments of an (H, E) tensor;
    segment s spans columns starts[s] up to starts[s + 1] (or E) and must
    be non-empty.  The gradient routes to the argmax column per row, ties
    resolved toward the lowest column, as in `elementwise_max`."""
    if x.data.ndim != 2:
        raise ShapeError(f"segment_max: needs an (H, E) tensor, got {x.shape}")
    width = x.shape[1]
    starts = np.asarray(starts, dtype=np.intp)
    if not len(starts):
        raise EmptyInput("segment_max of no segments")
    bounds = np.append(starts, width)
    if starts[0] != 0 or np.any(np.diff(bounds) <= 0):
        raise ShapeError(f"segment_max: bad segment starts {starts.tolist()} "
                         f"for {width} columns")
    out = np.maximum.reduceat(x.data, starts, axis=1)

    def bw(g):
        if x.requires_grad:
            segment = np.repeat(np.arange(len(starts)), np.diff(bounds))
            is_max = x.data == out[:, segment]
            first = np.minimum.reduceat(
                np.where(is_max, np.arange(width), width), starts, axis=1)
            grad = np.zeros_like(x.data)
            np.put_along_axis(grad, first, g, axis=1)
            x.accumulate(grad)

    return Tensor(out, parents=(x,), backward=bw)


def pack(scalars: Sequence[Tensor]) -> Tensor:
    """Stack 0-d tensors into a vector."""
    if not scalars:
        raise EmptyInput("pack of no tensors")
    for s in scalars:
        if s.data.shape != ():
            raise ShapeError("pack expects scalars")

    def bw(g):
        for i, s in enumerate(scalars):
            if s.requires_grad:
                s.accumulate(g[i])

    return Tensor(np.array([s.data for s in scalars]),
                  parents=tuple(scalars), backward=bw)


def softmax_xent(scores: Tensor, truth: int) -> Tuple[Tensor, np.ndarray]:
    """Numerically stable softmax cross-entropy; returns (loss, probs)."""
    k = scores.shape[0]
    if not 0 <= truth < k:
        raise IndexError(f"truth index {truth} out of range for {k} scores")
    shifted = scores.data - np.max(scores.data)
    exp = np.exp(shifted)
    probs = exp / np.sum(exp)

    def bw(g):
        if scores.requires_grad:
            grad = probs.copy()
            grad[truth] -= 1.0
            scores.accumulate(g * grad)

    loss = Tensor(-math.log(probs[truth]), parents=(scores,), backward=bw)
    return loss, probs


def softmax_probs(scores: np.ndarray) -> np.ndarray:
    shifted = scores - np.max(scores)
    exp = np.exp(shifted)
    return exp / np.sum(exp)


# --- parameters -------------------------------------------------------------

def glorot(rng: np.random.Generator, shape: Tuple[int, ...],
           name: str = "") -> Tensor:
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0]
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-a, a, size=shape), name=name)


def zeros(shape: Tuple[int, ...], name: str = "") -> Tensor:
    return parameter(np.zeros(shape), name=name)


class GruCellParams:
    """Update/reset/candidate gates, input size I, hidden size H."""

    def __init__(self, rng: np.random.Generator, input_size: int,
                 hidden_size: int, prefix: str):
        h, i = hidden_size, input_size
        self.wz = glorot(rng, (h, i), f"{prefix}.wz")
        self.uz = glorot(rng, (h, h), f"{prefix}.uz")
        self.bz = zeros((h,), f"{prefix}.bz")
        self.wr = glorot(rng, (h, i), f"{prefix}.wr")
        self.ur = glorot(rng, (h, h), f"{prefix}.ur")
        self.br = zeros((h,), f"{prefix}.br")
        self.wh = glorot(rng, (h, i), f"{prefix}.wh")
        self.uh = glorot(rng, (h, h), f"{prefix}.uh")
        self.bh = zeros((h,), f"{prefix}.bh")

    def tensors(self) -> List[Tensor]:
        return [self.wz, self.uz, self.bz, self.wr, self.ur, self.br,
                self.wh, self.uh, self.bh]


def gru_step(h: Tensor, x: Tensor, p: GruCellParams) -> Tensor:
    """z = s(Wz x + Uz h + bz); r = s(Wr x + Ur h + br);
    hcand = tanh(Wh x + Uh (r*h) + bh); h' = (1-z)*h + z*hcand.
    h and x are (H,) vectors or (H, B) column batches."""
    z = sigmoid(add_bias(add(matmul(p.wz, x), matmul(p.uz, h)), p.bz))
    r = sigmoid(add_bias(add(matmul(p.wr, x), matmul(p.ur, h)), p.br))
    hcand = tanh(add_bias(add(matmul(p.wh, x), matmul(p.uh, mul(r, h))),
                          p.bh))
    one_minus_z = sub(constant(np.ones_like(z.data)), z)
    return add(mul(one_minus_z, h), mul(z, hcand))


# --- optimizer --------------------------------------------------------------

class AdamState:
    def __init__(self, params: Sequence[Tensor]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0


def adam_step(params: Sequence[Tensor], state: AdamState, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected adaptive-moment update; params with no accumulated
    gradient are left untouched."""
    state.t += 1
    t = state.t
    for i, p in enumerate(params):
        if p.grad is None:
            continue
        g = p.grad
        state.m[i] = beta1 * state.m[i] + (1 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1 - beta2) * g * g
        m_hat = state.m[i] / (1 - beta1 ** t)
        v_hat = state.v[i] / (1 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


# --- checkpoints ------------------------------------------------------------

def save_checkpoint(path: str, named_params: Dict[str, Tensor],
                    config: Optional[dict] = None):
    """JSON document mapping names to shape + row-major values; floats are
    serialized with full round-trip precision."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "params": {name: {"shape": list(t.shape),
                          "data": t.data.ravel().tolist()}
                   for name, t in named_params.items()},
        "config": config or {},
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_checkpoint(path: str) -> Tuple[Dict[str, Tensor], dict]:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format: "
                         f"{doc.get('format_version')!r}")
    params = {name: parameter(
        np.asarray(rec["data"], dtype=DTYPE).reshape(rec["shape"]), name=name)
        for name, rec in doc["params"].items()}
    return params, doc.get("config", {})
