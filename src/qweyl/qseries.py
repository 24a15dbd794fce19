"""
Sparse polynomials / truncated formal power series in q with exact
integer coefficients.

A QSeries is a map degree -> coefficient plus an optional truncation
bound D, an integer >= 0.  With D set, the series is only known modulo
q^(D+1); arithmetic between two truncated series truncates at the smaller
bound.  Without D the series is an exact polynomial.  That rule lives in
`QSeries.combination` alone: the constructor and every arithmetic
operator are one call of it.

The module also holds the Kronecker packing that the P_q table and the
stable engine share: a polynomial sum c_d q^d is the integer
sum c_d 2^(d w), slot d of width w bits holding c_d (the substitution
q -> 2^w; D. Harvey, J. Symbolic Comput. 44 (2009)).  Integer addition
and multiplication of packed values are exact whatever the
coefficients; only reading a slot back needs each coefficient to fit in
its slot, |c| < 2^(w-1) (one bit of the slot is the sign), which every
caller proves for its width.  `_unpack_signed` is the one reader.
"""

__all__ = ["QSeries"]

from .partitions import check_bound


class QSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs=None, trunc: int | None = None):
        # c * q^d summed over the (d, c) pairs: the checks and the rule are combination's
        pairs = (coeffs.items() if isinstance(coeffs, dict) else coeffs) if coeffs else ()
        series = QSeries.combination([(c, d, _ONE) for d, c in pairs], trunc)
        self.coeffs, self.trunc = series.coeffs, series.trunc

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(trunc: int | None = None) -> "QSeries":
        return QSeries({}, trunc)

    @staticmethod
    def one(trunc: int | None = None) -> "QSeries":
        return QSeries({0: 1}, trunc)

    @staticmethod
    def monomial(deg: int, coeff: int = 1, trunc: int | None = None) -> "QSeries":
        return QSeries({deg: coeff}, trunc)

    @staticmethod
    def combination(terms, trunc: int | None = None) -> "QSeries":
        """sum of factor * q^shift * series over (factor, shift, series) triples.

        Truncates at the smallest of `trunc` and the series' bounds, like a
        fold of shift, scale and + would, but builds a single QSeries.  The
        integer checks run once per term, not per coefficient: the series'
        own pairs already passed them.  A term may shift below q^0 as long
        as nothing nonzero lands there.
        """
        if trunc is not None:
            check_bound(trunc, "truncation bound")
        t = trunc
        lowest = 0
        cc: dict[int, int] = {}
        for factor, shift, series in terms:
            # exact integer arithmetic: no float, fraction or bool gets in
            if not (type(factor) is int and type(shift) is int):
                raise ValueError(f"factor and shift must be integers, got {factor!r}, {shift!r}")
            if shift < lowest:
                lowest = shift
            st = series.trunc
            if st is not None and (t is None or st < t):
                t = st
            for d, c in series.coeffs.items():
                d += shift
                # the bound only shrinks, so a later filter would drop d
                if t is not None and d > t:
                    continue
                cc[d] = cc.get(d, 0) + factor * c
        out = object.__new__(QSeries)
        # the bound may have shrunk after a term below the old one was added
        out.coeffs = {d: c for d, c in cc.items() if c and (t is None or d <= t)}
        out.trunc = t
        if lowest < 0 and any(d < 0 for d in out.coeffs):
            raise ValueError("negative degree")
        return out

    @staticmethod
    def _trusted(coeffs: dict[int, int], trunc: int | None) -> "QSeries":
        """The series that takes over coeffs, a fresh {degree: coefficient}
        dict that already passes the constructor's checks at bound trunc
        (integer degrees in [0, trunc], nonzero integer coefficients), so
        none runs; the caller keeps no other reference to it."""
        series = object.__new__(QSeries)
        series.coeffs = coeffs
        series.trunc = trunc
        return series

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the highest stored term; -1 for the zero series."""
        return max(self.coeffs) if self.coeffs else -1

    def low_degree(self) -> int:
        return min(self.coeffs) if self.coeffs else -1

    def __getitem__(self, deg: int) -> int:
        return self.coeffs.get(deg, 0)

    def __call__(self, value: int) -> int:
        return sum(c * value**d for d, c in self.coeffs.items())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is int:  # a bool is no series
            other = QSeries({0: other})
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.trunc == other.trunc

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        return QSeries.combination([(1, 0, self), (1, 0, other)])

    def __neg__(self) -> "QSeries":
        return QSeries.combination([(-1, 0, self)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        return QSeries.combination([(1, 0, self), (-1, 0, other)])

    def __mul__(self, other: "QSeries") -> "QSeries":
        # the zero-factor term carries other's bound when self has no terms
        terms = [(0, 0, other)] + [(c, d, other) for d, c in self.coeffs.items()]
        return QSeries.combination(terms, self.trunc)

    def scale(self, k: int) -> "QSeries":
        # a non-integral factor would make the coefficients inexact
        if type(k) is not int:
            raise ValueError(f"scale factor must be an integer, got {k!r}")
        return QSeries.combination([(k, 0, self)])

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries.combination([(1, k, self)])

    def truncated(self, trunc: int | None) -> "QSeries":
        return QSeries.combination([(1, 0, self)], trunc)

    def div_one_minus_qm(self, m: int, trunc: int | None = None) -> "QSeries":
        """Multiply by the geometric series 1/(1 - q^m), truncated.

        A truncation bound must come either from the series itself or
        from the `trunc` argument, since the result is genuinely infinite.
        """
        if type(m) is not int:
            raise ValueError(f"m must be an integer >= 1, got {m!r}")
        if m == 0:
            raise ZeroDivisionError("division by 1 - q^0 = 0")
        if m < 0:
            raise ValueError("m must be >= 1")
        t = min((b for b in (self.trunc, trunc) if b is not None), default=None)
        if t is None:
            raise ValueError("division by 1 - q^m needs a truncation bound")
        # int(t): a non-integral bound reaches combination, which rejects it
        return QSeries.combination([(1, j * m, self) for j in range(int(t) // m + 1)], t)

    # -- rendering ----------------------------------------------------

    def pairs(self) -> list[tuple[int, int]]:
        """Sorted (degree, coefficient) pairs."""
        return sorted(self.coeffs.items())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for d, c in self.pairs():
            if d == 0:
                terms.append(str(c))
            else:
                q = "q" if d == 1 else f"q^{d}"
                if c == 1:
                    terms.append(q)
                elif c == -1:
                    terms.append(f"-{q}")
                else:
                    terms.append(f"{c}*{q}")
        s = " + ".join(terms).replace("+ -", "- ")
        return s

    def __repr__(self) -> str:
        t = "" if self.trunc is None else f", trunc={self.trunc}"
        return f"QSeries({self.coeffs!r}{t})"


# the unit that the constructor's monomial terms scale and shift
_ONE = QSeries._trusted({0: 1}, None)


# -- Kronecker packing ------------------------------------------------


def _pack(pairs, width: int) -> int:
    """The packed integer of (degree, coefficient) pairs, slots of `width`
    bits; exact for coefficients of any sign and size."""
    return sum(c << d * width for d, c in pairs)


def _low_slots(packed: int, width: int, slots: int) -> int:
    """The packed polynomial cut to its slots 0 .. slots-1 (mod q^slots),
    read as a balanced residue of packed mod 2^(width slots).

    Exact when each coefficient c_d of those slots has |c_d| < 2^(width-1),
    whatever the higher slots hold: packed minus L = sum_{d < slots} c_d
    2^(d width) is a multiple of 2^(width slots), and |L| is at most
    (2^(width-1) - 1)(2^(width slots) - 1)/(2^width - 1) < 2^(width slots - 1),
    so L is the one residue in [-2^(width slots - 1), 2^(width slots - 1)).
    """
    top = width * slots
    low = packed & ((1 << top) - 1)
    return low - (1 << top) if low >> (top - 1) else low


def _unpack_signed(packed: int, width: int) -> dict[int, int]:
    """{k: slot k} of a packed polynomial whose coefficients all have
    |c| < 2^(width-1), nonzero slots only, in increasing k: the balanced
    digits of packed in base 2^width, each in [-2^(width-1), 2^(width-1))."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = {}
    k = 0
    while packed:
        c = packed & mask
        packed >>= width
        if c:
            if c >= half:
                # a negative slot borrowed 2^width from the rest: carry it back
                c -= 1 << width
                packed += 1
            out[k] = c
        k += 1
    return out
