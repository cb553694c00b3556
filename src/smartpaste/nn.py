"""Dense-tensor reverse-mode autodiff core: vector/matrix ops, GRU cell,
element-wise and segment max pooling, softmax cross-entropy, and Adam.

The ops the encoders use take a vector of shape (H,) or a column batch of
shape (H, B), one example per column: `add`, `matmul` and `gru_step` work
on either, `gather`, `columns` and `segment_max` move and pool columns, and
`dot` scores one vector against every column.  The GRU cell is one op: its
gates, candidate state and output are computed in numpy, and one
hand-written vjp returns the gradients of its state, input and parameters.

Wide (float64) precision is the default; tests quote all tolerances at wide
precision.  The tape is implicit: each op's result records its parents and
one vector-Jacobian function, which maps the result's gradient to one
gradient per parent; a result computed only from constants records nothing,
and neither does any result computed inside `with no_tape():`, which is for
forwards whose values alone are read.  Tensor.backward() replays the tape
once in reverse topological order and is the one place that decides which
input receives a gradient.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

DTYPE = np.float64

CHECKPOINT_FORMAT_VERSION = 1


class ShapeError(Exception):
    pass


class EmptyInput(Exception):
    pass


class Tensor:
    """A dense array plus optional gradient buffer and autodiff linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: Tuple[Tensor, ...] = ()
        self._vjp: Optional[Callable[[np.ndarray], Sequence]] = None
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
        """Reverse sweep from this (scalar) tensor; visits each node once and
        hands each parent that needs a gradient its share, in parent order."""
        if self.data.shape != ():
            raise ShapeError("backward() requires a scalar output")
        topo: List[Tensor] = []
        seen = set()
        stack = [(self, False)]
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
        self.accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._vjp is not None and node.grad is not None:
                for p, g in zip(node._parents, node._vjp(node.grad)):
                    if p.requires_grad:
                        p.accumulate(g)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, name={self.name!r})"


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


_taping = True  # off inside `no_tape()`


@contextmanager
def no_tape() -> Iterator[None]:
    """Within the block every op result is a constant: it keeps no parents
    and no vjp, whatever its inputs, so nothing in it can be differentiated.
    The previous setting is restored on exit, also on an exception."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


def _op(data, parents: Tuple[Tensor, ...],
        vjp: Callable[[np.ndarray], Sequence]) -> Tensor:
    """The result of an op: `vjp(g)` maps the result's gradient to one
    gradient per parent, in parent order.  A result none of whose parents
    needs a gradient, or made inside `no_tape()`, is a constant and keeps
    no tape."""
    out = Tensor(data)
    if _taping:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._vjp = vjp
                break
    return out


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _same_shapes(parts: Sequence[Tensor], op: str):
    if not parts:
        raise EmptyInput(f"{op} of no tensors")
    for p in parts[1:]:
        _same_shape(parts[0], p, op)


# --- primitive ops ----------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _op(a.data + b.data, (a, b), lambda g: (g, g))


def matmul(w: Tensor, x: Tensor) -> Tensor:
    """W @ x for a vector x of shape (N,) or a column batch of shape (N, B)."""
    if w.data.ndim != 2 or x.data.ndim not in (1, 2) \
            or w.shape[1] != x.shape[0]:
        raise ShapeError(f"matmul: {w.shape} @ {x.shape}")
    return _op(w.data @ x.data, (w, x),
               lambda g: (np.outer(g, x.data) if x.data.ndim == 1
                          else g @ x.data.T, w.data.T @ g))


def dot(a: Tensor, b: Tensor) -> Tensor:
    """a . b for two (H,) vectors; for an (H, K) b, the vector of the K
    inner products of a with the columns of b."""
    if a.data.ndim != 1 or b.data.ndim not in (1, 2) \
            or a.shape[0] != b.shape[0]:
        raise ShapeError(f"dot: shape mismatch {a.shape} vs {b.shape}")
    if b.data.ndim == 1:
        return _op(np.dot(a.data, b.data), (a, b),
                   lambda g: (g * b.data, g * a.data))
    return _op(a.data @ b.data, (a, b),
               lambda g: (b.data @ g, np.outer(a.data, g)))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Stack along the first axis: (H1,) + (H2,) -> (H1 + H2,), and
    (H1, B) + (H2, B) -> (H1 + H2, B)."""
    if not parts:
        raise EmptyInput("concat of no tensors")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])
    return _op(np.concatenate([p.data for p in parts]), tuple(parts),
               lambda g: [g[lo:hi]
                          for lo, hi in zip(offsets[:-1], offsets[1:])])


def mean_of(parts: Sequence[Tensor]) -> Tensor:
    _same_shapes(parts, "mean_of")
    k = float(len(parts))
    return _op(np.mean([p.data for p in parts], axis=0), tuple(parts),
               lambda g: [g / k] * len(parts))


def elementwise_max(parts: Sequence[Tensor]) -> Tensor:
    """Coordinate-wise max; the gradient routes to the argmax input per
    coordinate, ties resolved toward the lowest list index."""
    _same_shapes(parts, "elementwise_max")
    stacked = np.stack([p.data for p in parts])
    argmax = np.argmax(stacked, axis=0)  # first occurrence wins ties
    out = np.take_along_axis(stacked, argmax[None], axis=0)[0]
    return _op(out, tuple(parts),
               lambda g: [g * (argmax == i) for i in range(len(parts))])


def columns(parts: Sequence[Tensor]) -> Tensor:
    """Side-by-side stack of (H,) vectors (one column each) and (H, B)
    batches: (H, total columns)."""
    if not parts:
        raise EmptyInput("columns of no tensors")
    height = parts[0].shape[0]
    # each part's column (a vector) or column slice (a batch) of the result
    spans = []
    width = 0
    for p in parts:
        if p.data.ndim not in (1, 2) or p.shape[0] != height:
            raise ShapeError(f"columns: {p.shape} next to height {height}")
        if p.data.ndim == 1:
            spans.append(width)
            width += 1
        else:
            spans.append(slice(width, width + p.shape[1]))
            width += p.shape[1]
    out = np.empty((height, width))
    for p, span in zip(parts, spans):
        out[:, span] = p.data
    return _op(out, tuple(parts), lambda g: [g[:, span] for span in spans])


def gather(x: Tensor, index) -> Tensor:
    """Columns of an (H, N) tensor: an int index gives that column as an
    (H,) vector, a sequence of indices an (H, len(index)) batch.  Repeated
    indices are allowed; their gradients add up in the source column.  The
    result is C-ordered, as `columns` is, so a product over a gathered
    batch rounds as over the same batch stacked."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather: needs an (H, N) tensor, got {x.shape}")
    if not isinstance(index, (int, np.integer)):
        index = np.asarray(index, dtype=np.intp)

    def vjp(g):
        grad = np.zeros_like(x.data)
        np.add.at(grad, (slice(None), index), g)
        return (grad,)

    return _op(np.take(x.data, index, axis=1), (x,), vjp)


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

    def vjp(g):
        segment = np.repeat(np.arange(len(starts)), np.diff(bounds))
        is_max = x.data == out[:, segment]
        first = np.minimum.reduceat(
            np.where(is_max, np.arange(width), width), starts, axis=1)
        grad = np.zeros_like(x.data)
        np.put_along_axis(grad, first, g, axis=1)
        return (grad,)

    return _op(out, (x,), vjp)


def pack(scalars: Sequence[Tensor]) -> Tensor:
    """Stack 0-d tensors into a vector."""
    if not scalars:
        raise EmptyInput("pack of no tensors")
    for s in scalars:
        if s.data.shape != ():
            raise ShapeError("pack expects scalars")
    return _op(np.array([s.data for s in scalars]), tuple(scalars), list)


def softmax_xent(scores: Tensor, truth: int) -> Tuple[Tensor, np.ndarray]:
    """Numerically stable softmax cross-entropy; returns (loss, probs).  The
    loss is the log-sum-exp of the max-shifted scores minus the shifted
    truth score, so it stays finite where the truth's probability
    underflows to 0."""
    k = scores.shape[0]
    if not 0 <= truth < k:
        raise IndexError(f"truth index {truth} out of range for {k} scores")
    shifted = scores.data - np.max(scores.data)
    exp = np.exp(shifted)
    total = np.sum(exp)
    probs = exp / total

    def vjp(g):
        grad = probs.copy()
        grad[truth] -= 1.0
        return (g * grad,)

    return _op(math.log(total) - shifted[truth], (scores,), vjp), probs


def softmax_probs(scores: np.ndarray) -> np.ndarray:
    """The softmax along the last axis: of a vector, or of each row."""
    exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


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
    h and x are (H,) vectors or (H, B) column batches; a vector runs as a
    one-column batch.  One op: its parents are h, x and the cell's nine
    tensors, and its vjp returns their eleven gradients."""
    if h.data.ndim not in (1, 2) or x.data.ndim != h.data.ndim \
            or h.shape[1:] != x.shape[1:] or h.shape[0] != p.uz.shape[1] \
            or x.shape[0] != p.wz.shape[1]:
        raise ShapeError(f"gru_step: h {h.shape}, x {x.shape} for a cell "
                         f"of {p.wz.shape[1]} -> {p.uz.shape[1]}")
    vector = h.data.ndim == 1
    hd = h.data[:, None] if vector else h.data
    xd = x.data[:, None] if vector else x.data
    z = 1.0 / (1.0 + np.exp(-(p.wz.data @ xd + p.uz.data @ hd
                              + p.bz.data[:, None])))
    r = 1.0 / (1.0 + np.exp(-(p.wr.data @ xd + p.ur.data @ hd
                              + p.br.data[:, None])))
    rh = r * hd
    cand = np.tanh(p.wh.data @ xd + p.uh.data @ rh + p.bh.data[:, None])
    keep = 1.0 - z
    out = keep * hd + z * cand

    def vjp(g):
        g = g[:, None] if vector else g
        # the gates' and the candidate's pre-activation gradients
        a_cand = g * z * (1.0 - cand * cand)
        d_rh = p.uh.data.T @ a_cand
        a_r = d_rh * hd * r * (1.0 - r)
        a_z = g * (cand - hd) * z * keep
        dh = g * keep + d_rh * r + p.uz.data.T @ a_z \
            + p.ur.data.T @ a_r
        dx = p.wz.data.T @ a_z + p.wr.data.T @ a_r + p.wh.data.T @ a_cand
        if vector:
            dh, dx = dh[:, 0], dx[:, 0]
        return (dh, dx,
                a_z @ xd.T, a_z @ hd.T, a_z.sum(axis=1),
                a_r @ xd.T, a_r @ hd.T, a_r.sum(axis=1),
                a_cand @ xd.T, a_cand @ rh.T, a_cand.sum(axis=1))

    return _op(out[:, 0] if vector else out, (h, x, *p.tensors()), vjp)


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
    """The parameters and config of a checkpoint; a document of the wrong
    shape raises ValueError naming what is wrong."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("checkpoint is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format: "
                         f"{doc.get('format_version')!r}")
    if not isinstance(doc.get("params"), dict):
        raise ValueError("checkpoint has no 'params' object")
    params = {}
    for name, rec in doc["params"].items():
        try:
            data = np.asarray(rec["data"], dtype=DTYPE).reshape(rec["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"checkpoint parameter {name!r} is ill-formed: "
                             f"{type(e).__name__}: {e}") from e
        params[name] = parameter(data, name=name)
    return params, doc.get("config", {})
