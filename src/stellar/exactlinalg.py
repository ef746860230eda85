"""Exact rank over Q and prime fields: one column-reduction loop.

Matrices are given column-wise; each column is a map ``row_key -> int``
with arbitrary comparable row keys (we use face bitmasks, so no index
bookkeeping is needed).  ``rank`` is the standard column echelon pass:
kill the largest row key of each column against the recorded pivot
columns, and record the column under that key once no pivot has it.
The field only changes how a column is stored and how one column is
subtracted from another:

- GF(2): a column is the set of its odd-entry keys, and subtracting is
  symmetric difference (``^=``);
- Z_p: entries are reduced mod p, and a pivot column is scaled so its
  pivot entry is 1, so subtracting takes one multiple of it;
- Q: elimination is fraction-free on integer columns, each divided by
  the gcd of its entries; a column is rescaled by the pivot entry only
  when that entry is not 1.

``pivots``, if given, must be an empty dict.  It receives each reduced
nonzero column (a set over GF(2), a dict otherwise) under its pivot row,
which is the largest row key left in that column.  The Betti routine in
``homology`` reads these pivot rows to clear the next boundary map down.
"""
from __future__ import annotations

from math import gcd


def _gcd_reduce(col: dict) -> dict:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col


def rank(cols: list[dict], field, pivots: dict | None = None) -> int:
    """Rank over ``field`` (a ``FieldSpec``) of the integer columns."""
    if pivots is None:
        pivots = {}
    p = field.p if field.kind == "prime" else 0
    n = 0
    for col in cols:
        if p == 2:
            col = {r for r, v in col.items() if v & 1}
        elif p:
            col = {r: v % p for r, v in col.items() if v % p}
        else:
            col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                if p == 2:
                    pivots[low] = col
                elif p:
                    inv = pow(col[low], -1, p)
                    pivots[low] = {r: v * inv % p for r, v in col.items()}
                else:
                    pivots[low] = _gcd_reduce(col)
                n += 1
                break
            if p == 2:
                col ^= other
                continue
            b = col.pop(low)
            if p:
                for r, v in other.items():
                    if r != low:
                        nv = (col.get(r, 0) - b * v) % p
                        if nv:
                            col[r] = nv
                        elif r in col:
                            del col[r]
                continue
            a = other[low]
            if a != 1:
                col = {r: v * a for r, v in col.items()}
            for r, v in other.items():
                if r != low:
                    nv = col.get(r, 0) - b * v
                    if nv:
                        col[r] = nv
                    elif r in col:
                        del col[r]
            col = _gcd_reduce(col)
    return n
