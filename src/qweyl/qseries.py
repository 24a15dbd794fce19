"""
Sparse polynomials / truncated formal power series in q with exact
integer coefficients.

A QSeries is a map degree -> coefficient plus an optional truncation
bound D.  With D set, the series is only known modulo q^(D+1); arithmetic
between two truncated series truncates at the smaller bound.  Without D
the series is an exact polynomial.
"""

__all__ = ["QSeries"]

from typing import Optional


def _min_trunc(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class QSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs=None, trunc: Optional[int] = None):
        if trunc is not None and trunc < 0:
            raise ValueError("truncation bound must be >= 0")
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
        t = _min_trunc(self.trunc, other.trunc)
        cc = dict(self.coeffs)
        for d, c in other.coeffs.items():
            cc[d] = cc.get(d, 0) + c
        return QSeries(cc, t)

    def __neg__(self) -> "QSeries":
        return QSeries({d: -c for d, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        t = _min_trunc(self.trunc, other.trunc)
        cc: dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                if t is not None and d > t:
                    continue
                cc[d] = cc.get(d, 0) + c1 * c2
        return QSeries(cc, t)

    def scale(self, k: int) -> "QSeries":
        return QSeries({d: k * c for d, c in self.coeffs.items()}, self.trunc)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries({d + k: c for d, c in self.coeffs.items()}, self.trunc)

    def truncated(self, trunc: Optional[int]) -> "QSeries":
        t = _min_trunc(self.trunc, trunc)
        return QSeries(self.coeffs, t)

    def div_one_minus_qm(self, m: int, trunc: Optional[int] = None) -> "QSeries":
        """Multiply by the geometric series 1/(1 - q^m), truncated.

        A truncation bound must come either from the series itself or
        from the `trunc` argument, since the result is genuinely infinite.
        """
        if m == 0:
            raise ZeroDivisionError("division by 1 - q^0 = 0")
        if m < 0:
            raise ValueError("m must be >= 1")
        t = _min_trunc(self.trunc, trunc)
        if t is None:
            raise ValueError("division by 1 - q^m needs a truncation bound")
        cc: dict[int, int] = {}
        for d, c in self.coeffs.items():
            e = d
            while e <= t:
                cc[e] = cc.get(e, 0) + c
                e += m
        return QSeries(cc, t)

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
