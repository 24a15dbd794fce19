"""Strip and Pieri references for the tests, sharing no code with
`qweyl.partitions._box_tuples`: the box enumeration by recursion on the
first row, the strip enumerators on it, and the stable Pieri support by
removing a strip, then adding one."""


def box_tuples(lower, upper, total):
    """The tuples t with lower[i] <= t[i] <= upper[i] and sum(t) == total,
    in lexicographic order, with trailing zeros dropped."""
    if not lower:
        if total == 0:
            yield ()
        return
    rest_low, rest_high = sum(lower[1:]), sum(upper[1:])
    for head in range(max(lower[0], total - rest_high), min(upper[0], total - rest_low) + 1):
        for tail in box_tuples(lower[1:], upper[1:], total - head):
            yield (head,) + tail if head or tail else ()


def add_strips(p, size):
    """The partitions p + a horizontal strip of `size` boxes: row i lies
    in [p_i, p_{i-1}], row 1 in [p_1, p_1 + size]."""
    top = (p[0] if p else 0) + size
    return list(box_tuples(p + (0,), (top,) + p, sum(p) + size))


def remove_strips(p, size):
    """The partitions p - a horizontal strip of `size` boxes: row i lies
    in [p_{i+1}, p_i]."""
    return list(box_tuples(p[1:] + (0,) if p else (), p, sum(p) - size))


def pieri_support(gamma, l):
    """{lam: p^lam_{gamma,l}} as (lam, multiplicity) pairs, in the order
    of a removal of `removed` = 0, 1, ... boxes followed by an addition
    of the other l - removed."""
    out = {}
    for removed in range(min(l, sum(gamma)) + 1):
        for alpha in remove_strips(gamma, removed):
            for lam in add_strips(alpha, l - removed):
                out[lam] = out.get(lam, 0) + 1
    return tuple(out.items())
