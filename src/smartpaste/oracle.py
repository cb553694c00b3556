"""Independent brute-force references used by tests: execution-path
enumeration for the data-flow relations, exhaustive assignment search for
tiny instances, and finite-difference gradients."""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .dataflow import EPS, Cfg, UseGraph, _function_symbols, build_cfg, \
    occurrences
from .minilang.checker import TypedProgram


class PathExplosion(Exception):
    pass


class TooLarge(Exception):
    pass


def enumerate_paths(cfg: Cfg, loop_bound: int = 3,
                    cap: int = 200_000) -> List[List[int]]:
    """All entry-to-exit node sequences traversing no edge more than
    loop_bound + 1 times.  Raises PathExplosion past `cap` paths."""
    paths: List[List[int]] = []

    def dfs(node: int, path: List[int], edge_count: Dict[Tuple[int, int], int]):
        if node == cfg.exit:
            if len(paths) >= cap:
                raise PathExplosion(f"more than {cap} paths")
            paths.append(list(path))
            return
        for succ in cfg.succs[node]:
            e = (node, succ)
            if edge_count.get(e, 0) > loop_bound:
                continue
            edge_count[e] = edge_count.get(e, 0) + 1
            path.append(succ)
            dfs(succ, path, edge_count)
            path.pop()
            edge_count[e] -= 1

    dfs(cfg.entry, [cfg.entry], {})
    return paths


def oracle_dataflow(program: TypedProgram, loop_bound: int = 3,
                    override: Optional[Dict[int, Optional[int]]] = None,
                    cap: int = 200_000) -> UseGraph:
    """df_in/df_out by exhaustive path enumeration: the union over enumerated
    executions of the most recent (resp. next) occurrence at each token."""
    ug = UseGraph(occurrences(program, override))
    occ, df_in, df_out = ug.occ, ug.df_in, ug.df_out

    for fn in program.ast.functions:
        cfg = build_cfg(fn)
        syms = _function_symbols(program, fn)
        for path in enumerate_paths(cfg, loop_bound, cap):
            tokens = [t for nid in path for t in cfg.nodes[nid].tokens]
            last = {v: EPS for v in syms}
            for t in tokens:
                v_here = occ.get(t)
                for v in syms:
                    key = (t, v)
                    df_in[key] = df_in.get(key, frozenset()) | {last[v]}
                if v_here in last:
                    last[v_here] = t
            nxt = {v: EPS for v in syms}
            for t in reversed(tokens):
                v_here = occ.get(t)
                for v in syms:
                    key = (t, v)
                    df_out[key] = df_out.get(key, frozenset()) | {nxt[v]}
                if v_here in nxt:
                    nxt[v_here] = t
    return ug


def oracle_map(candidates: List[List[int]],
               score_assignment: Callable[[List[int]], float],
               cap: int = 4096) -> Tuple[List[int], float]:
    """Global optimum over all placeholder assignments by enumeration.
    `candidates[i]` lists the options for placeholder i; raises TooLarge when
    the product of candidate counts exceeds `cap`."""
    total = 1
    for c in candidates:
        total *= len(c)
        if total > cap:
            raise TooLarge(f"{total} assignments exceed cap {cap}")
    best, best_score = None, -np.inf
    for combo in itertools.product(*candidates):
        s = score_assignment(list(combo))
        if s > best_score:
            best, best_score = list(combo), s
    return best, best_score


def finite_diff_grad(f: Callable[[], float], arrays: List[np.ndarray],
                     step: float = 1e-5,
                     coords: Optional[List[Tuple[int, Tuple[int, ...]]]] = None
                     ) -> List[np.ndarray]:
    """Central-difference gradient of f w.r.t. the given parameter arrays,
    which f reads by reference.  When `coords` is given, only those
    (array index, element index) coordinates are estimated; others are NaN."""
    grads = [np.full_like(a, np.nan) for a in arrays]
    if coords is None:
        coords = [(i, idx) for i, a in enumerate(arrays)
                  for idx in np.ndindex(a.shape)]
    for i, idx in coords:
        orig = arrays[i][idx]
        arrays[i][idx] = orig + step
        f_plus = f()
        arrays[i][idx] = orig - step
        f_minus = f()
        arrays[i][idx] = orig
        grads[i][idx] = (f_plus - f_minus) / (2.0 * step)
    return grads
