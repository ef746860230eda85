"""Exact rank/kernel computations over Q and prime fields.

Matrices are given column-wise; each column is a map ``row_key -> value``
with arbitrary comparable row keys (we use face bitmasks, so no index
bookkeeping is needed).  Reduction is the standard column echelon pass:
kill the largest row key of each column against recorded pivot columns.
Over Q the arithmetic is fraction-free on gcd-reduced integer columns;
over Z_p it is modular; over GF(2) columns are plain sets of row keys.

The three rank kernels take an optional empty dict ``pivots``; it
receives each reduced nonzero column under its pivot row, the largest
row key left in it.  The Betti routine in ``homology`` reads these pivot
rows to clear the next boundary map down.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable


def rank_gf2(cols: Iterable[set], pivots: dict | None = None) -> int:
    if pivots is None:
        pivots = {}
    rank = 0
    for col in cols:
        col = set(col)
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                rank += 1
                break
            col ^= other
    return rank


def rank_modp(cols: Iterable[dict], p: int, pivots: dict | None = None) -> int:
    if pivots is None:
        pivots = {}
    rank = 0
    for col in cols:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {r: (v * inv) % p for r, v in col.items()}
                rank += 1
                break
            c = col.pop(low)
            for r, v in other.items():
                if r == low:
                    continue
                nv = (col.get(r, 0) - c * v) % p
                if nv:
                    col[r] = nv
                elif r in col:
                    del col[r]
    return rank


def _gcd_reduce(col: dict) -> dict:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col


def rank_int(cols: Iterable[dict], pivots: dict | None = None) -> int:
    """Rank over Q of integer columns, by exact integer elimination."""
    if pivots is None:
        pivots = {}
    rank = 0
    for col in cols:
        col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = _gcd_reduce(col)
                rank += 1
                break
            a = other[low]
            b = col.pop(low)
            new = {r: v * a for r, v in col.items()}
            for r, v in other.items():
                if r == low:
                    continue
                nv = new.get(r, 0) - b * v
                if nv:
                    new[r] = nv
                elif r in new:
                    del new[r]
            col = _gcd_reduce(new)
    return rank


def rank_cols(cols, field) -> int:
    """Dispatch on a FieldSpec-like object with attributes kind/p."""
    if field.kind == "rationals":
        return rank_int(cols)
    if field.p == 2:
        return rank_gf2([set(c) for c in cols])
    return rank_modp(cols, field.p)


def kernel_basis(keyed_cols: list[tuple[object, dict]], field) -> list[dict]:
    """Kernel vectors of the map whose columns are given as (key, column).

    Returns coefficient dicts ``key -> value`` (over Q the values are
    integers; a common scalar is irrelevant for span computations).
    """
    p = None if field.kind == "rationals" else field.p
    pivots: dict = {}
    kernel: list[dict] = []
    for key, col in keyed_cols:
        if p is None:
            col = {r: v for r, v in col.items() if v}
        else:
            col = {r: v % p for r, v in col.items() if v % p}
        track = {key: 1}
        while col:
            low = max(col)
            entry = pivots.get(low)
            if entry is None:
                pivots[low] = (col, track)
                break
            ocol, otrack = entry
            if p is None:
                a = ocol[low]
                b = col.pop(low)
                col = {r: v * a for r, v in col.items()}
                track = {r: v * a for r, v in track.items()}
                for r, v in ocol.items():
                    if r == low:
                        continue
                    nv = col.get(r, 0) - b * v
                    if nv:
                        col[r] = nv
                    elif r in col:
                        del col[r]
                for r, v in otrack.items():
                    nv = track.get(r, 0) - b * v
                    if nv:
                        track[r] = nv
                    elif r in track:
                        del track[r]
                # joint gcd reduction keeps the invariant col == A . track
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                for v in track.values():
                    g = gcd(g, v)
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
                    track = {r: v // g for r, v in track.items()}
            else:
                c = col.pop(low) * pow(ocol[low], -1, p) % p
                for r, v in ocol.items():
                    if r == low:
                        continue
                    nv = (col.get(r, 0) - c * v) % p
                    if nv:
                        col[r] = nv
                    elif r in col:
                        del col[r]
                for r, v in otrack.items():
                    nv = (track.get(r, 0) - c * v) % p
                    if nv:
                        track[r] = nv
                    elif r in track:
                        del track[r]
        else:
            kernel.append(track)
    return kernel
