"""Exact sparse Gaussian elimination over Q(zeta_5).

Rows are sparse dicts mapping column index to a CycNum; zero entries are
dropped on insertion, and pivots are inverted with CycNum.inv.  Pivot rows
are kept fully reduced against each other (reduced row echelon form), with
the pivot chosen as the smallest column for determinism and scaled to 1;
the Fraction coordinates' automatic gcd normalization keeps coefficient
growth controlled on the systems this package builds, which are
near-diagonal.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["ExactRREF"]

Row = Dict[int, object]


class ExactRREF:
    """Incremental reduced row echelon form over Q(zeta_5)."""

    def __init__(self):
        self.pivots: Dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Residue of a row after eliminating all current pivot columns."""
        row = {c: v for c, v in row.items() if v}
        hits = [c for c in row if c in self.pivots]
        for col in hits:
            f = row.pop(col)
            for c2, v2 in self.pivots[col].items():
                if c2 == col:
                    continue
                cur = row.get(c2)
                nv = (cur - f * v2) if cur is not None else -(f * v2)
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)
        return row

    def add_row(self, row: Row) -> Optional[int]:
        """Insert a row; returns its pivot column, or None if dependent."""
        row = self.reduce(row)
        if not row:
            return None
        col = min(row)
        inv = row[col].inv()
        norm = {c: v * inv for c, v in row.items()}
        # back-substitute so existing pivot rows stay reduced
        for prow in self.pivots.values():
            if col in prow:
                f = prow.pop(col)
                for c2, v2 in norm.items():
                    if c2 == col:
                        continue
                    cur = prow.get(c2)
                    nv = (cur - f * v2) if cur is not None else -(f * v2)
                    if nv:
                        prow[c2] = nv
                    else:
                        prow.pop(c2, None)
        self.pivots[col] = norm
        return col

    def contains(self, row: Row) -> bool:
        """True iff the row lies in the span of the inserted rows."""
        return not self.reduce(row)
