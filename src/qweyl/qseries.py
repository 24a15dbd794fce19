"""
Sparse polynomials / truncated formal power series in q with exact
integer coefficients.

A QSeries is a map degree -> coefficient plus an optional truncation
bound D, an integer >= 0.  With D set, the series is only known modulo
q^(D+1); arithmetic between two truncated series truncates at the smaller
bound.  Without D the series is an exact polynomial.  That rule lives in
`QSeries.combination` alone: every arithmetic operator is one call of it.
"""

__all__ = ["QSeries"]

from typing import Optional


class QSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs=None, trunc: Optional[int] = None):
        # the rule of partitions.check_bound, inlined: this is a hot path
        if trunc is not None and not (isinstance(trunc, int) and trunc >= 0):
            raise ValueError(f"truncation bound must be an integer >= 0, got {trunc!r}")
        cc = {}
        if coeffs:
            for d, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
                if d < 0:
                    raise ValueError("negative degree")
                if c and (trunc is None or d <= trunc):
                    cc[d] = cc.get(d, 0) + c
        self.coeffs = {d: c for d, c in cc.items() if c}
        self.trunc = trunc

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(trunc: Optional[int] = None) -> "QSeries":
        return QSeries({}, trunc)

    @staticmethod
    def one(trunc: Optional[int] = None) -> "QSeries":
        return QSeries({0: 1}, trunc)

    @staticmethod
    def monomial(deg: int, coeff: int = 1, trunc: Optional[int] = None) -> "QSeries":
        return QSeries({deg: coeff}, trunc)

    @staticmethod
    def combination(terms, trunc: Optional[int] = None) -> "QSeries":
        """sum of factor * q^shift * series over (factor, shift, series) triples.

        Truncates at the smallest of `trunc` and the series' bounds, like a
        fold of shift, scale and + would, but builds a single QSeries.
        """
        t = trunc
        cc: dict[int, int] = {}
        for factor, shift, series in terms:
            st = series.trunc
            if st is not None and (t is None or st < t):
                t = st
            for d, c in series.coeffs.items():
                d += shift
                # the bound only shrinks, so the constructor would drop d
                if t is not None and d > t:
                    continue
                cc[d] = cc.get(d, 0) + factor * c
        return QSeries(cc, t)

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
        if isinstance(other, int):
            other = QSeries({0: other})
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.trunc == other.trunc

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.trunc))

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
        if not isinstance(k, int):
            raise ValueError(f"scale factor must be an integer, got {k!r}")
        return QSeries.combination([(k, 0, self)])

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries.combination([(1, k, self)])

    def truncated(self, trunc: Optional[int]) -> "QSeries":
        return QSeries.combination([(1, 0, self)], trunc)

    def div_one_minus_qm(self, m: int, trunc: Optional[int] = None) -> "QSeries":
        """Multiply by the geometric series 1/(1 - q^m), truncated.

        A truncation bound must come either from the series itself or
        from the `trunc` argument, since the result is genuinely infinite.
        """
        if m == 0:
            raise ZeroDivisionError("division by 1 - q^0 = 0")
        if m < 0:
            raise ValueError("m must be >= 1")
        t = min((b for b in (self.trunc, trunc) if b is not None), default=None)
        if t is None:
            raise ValueError("division by 1 - q^m needs a truncation bound")
        # int(t): a non-integral bound reaches the constructor, which rejects it
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
