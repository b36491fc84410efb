"""Partition combinatorics: conjugation, bounded enumeration in a rectangle,
rectangle complements, and hook/content data.

Partitions are canonical tuples of weakly decreasing positive integers;
the empty partition is ().  Operations that need padded parts take the pad
length explicitly.
"""

from __future__ import annotations

Partition = tuple


def canonical(parts) -> Partition:
    """Trim trailing zeros and validate weak decrease."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {parts}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return p


def size(p: Partition) -> int:
    return sum(p)


def part(p: Partition, j: int) -> int:
    """1-based part with zero padding beyond the length."""
    return p[j - 1] if 1 <= j <= len(p) else 0


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


def enumerate_bounded(rows: int, cols: int) -> list[Partition]:
    """All partitions with at most `rows` rows and parts <= `cols`.

    Order is graded lexicographic: by size, then lexicographically on the
    part tuples.  There are binom(rows+cols, rows) of them.
    """
    if rows < 0 or cols < 0:
        raise ValueError("enumerate_bounded needs nonnegative bounds")
    out = [()]

    def extend(prefix, maxpart, remaining_rows):
        if remaining_rows == 0:
            return
        for x in range(1, maxpart + 1):
            p = prefix + (x,)
            out.append(p)
            extend(p, x, remaining_rows - 1)

    extend((), cols, rows)
    out.sort(key=lambda p: (sum(p), p))
    return out


def in_rectangle(p: Partition, rows: int, cols: int) -> bool:
    return len(p) <= rows and (not p or p[0] <= cols)


def rectangle_complement(mu: Partition, rows: int, cols: int) -> Partition:
    """Complement of mu in the rows x cols rectangle, rotated by 180 degrees.

    lam_j = cols - mu_{rows+1-j}; an involution on the rectangle.
    """
    mu = canonical(mu)
    if not in_rectangle(mu, rows, cols):
        raise ValueError(f"{mu} does not fit in a {rows}x{cols} rectangle")
    lam = tuple(cols - part(mu, rows + 1 - j) for j in range(1, rows + 1))
    return canonical(lam)


def cells(p: Partition):
    """Yield the (row, col) cells of the Young diagram, 1-based."""
    for i, row in enumerate(p, start=1):
        for j in range(1, row + 1):
            yield (i, j)


def hook_content_data(p: Partition) -> list[tuple[tuple[int, int], int, int]]:
    """Per cell (i,j): hook length h = p_i - j + p'_j - i + 1, content j - i."""
    pc = conjugate(p)
    return [((i, j), p[i - 1] - j + pc[j - 1] - i + 1, j - i)
            for (i, j) in cells(p)]


def to_json(p: Partition) -> list[int]:
    return list(p)


def from_json(parts) -> Partition:
    return canonical(parts)
