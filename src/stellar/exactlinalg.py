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

``pivots``, if given, receives each reduced nonzero column (a set over
GF(2), a dict otherwise) under its pivot row, which is the largest row
key left in that column.  The Betti routine in ``homology`` reads these
pivot rows to clear the next boundary map down.

A caller may seed ``pivots`` with columns it has not built: under row
key ``low`` it stores an int ``x``, and ``build(x)`` is the integer
column, whose largest row is ``low`` with an entry that is a unit of the
field.  Distinct keys make the seeds an echelon form, so the rank of
``cols`` together with them is ``len(pivots)`` afterwards, whether or
not a seed is ever read.  A seed is built, and stored for the field in
its place, only the first time an elimination reads it.  This is how
``homology`` defers the apparent pivots of a boundary map (Bauer,
"Ripser", J. Appl. Comput. Topol. 5, 2021).
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


def _field_col(col: dict, p: int):
    """The integer column ``col`` over Z_p, or over Q when p is 0."""
    if p == 2:
        return {r for r, v in col.items() if v & 1}
    if p:
        return {r: v % p for r, v in col.items() if v % p}
    return {r: v for r, v in col.items() if v}


def _pivot_col(col, low, p: int):
    """A reduced column as it is stored under its pivot row ``low``."""
    if p == 2:
        return col
    if p:
        inv = pow(col[low], -1, p)
        return {r: v * inv % p for r, v in col.items()}
    return _gcd_reduce(col)


def rank(cols: list[dict], field, pivots: dict | None = None,
         build=None) -> int:
    """Rank over ``field`` (a ``FieldSpec``) of the integer columns; the
    number of pivots they add to ``pivots``."""
    if pivots is None:
        pivots = {}
    p = field.p if field.kind == "prime" else 0
    n = 0
    for col in cols:
        col = _field_col(col, p)
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = _pivot_col(col, low, p)
                n += 1
                break
            if other.__class__ is int:  # a seeded pivot, read for the first time
                other = pivots[low] = _pivot_col(_field_col(build(other), p), low, p)
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
