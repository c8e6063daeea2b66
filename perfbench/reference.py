"""Reference arithmetic for building inputs and checking outputs.

This module does not import gfrecip.  An element of F_{p^e} is a tuple
of e residues (ascending powers of the generator t) reduced by the
field's modulus; a polynomial is a list of elements, ascending by
degree, with no zero top coefficient.  Only the modulus comes from the
program under test, so both sides name the same field.
"""

from __future__ import annotations


class RefField:
    def __init__(self, p: int, e: int, modulus):
        self.p, self.e, self.q = p, e, p ** e
        self.modulus = tuple(modulus)
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)

    # -- elements --------------------------------------------------------------

    def add(self, x, y):
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def neg(self, x):
        p = self.p
        return tuple(-a % p for a in x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        p, e = self.p, self.e
        if e == 1:
            return (x[0] * y[0] % p,)
        conv = [0] * (2 * e - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    conv[i + j] += a * b
        mod = self.modulus
        for k in range(2 * e - 2, e - 1, -1):
            c = conv[k]
            if c:
                for i in range(e):
                    conv[k - e + i] -= c * mod[i]
        return tuple(v % p for v in conv[:e])

    def pow(self, x, k: int):
        if k < 0:
            x, k = self.pow(x, self.q - 2), -k
        acc = self.one
        while k:
            if k & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            k >>= 1
        return acc

    def is_square(self, x) -> bool:
        """Euler's criterion for a nonzero x."""
        return self.pow(x, (self.q - 1) // 2) == self.one

    def random_element(self, rng, nonzero: bool = False):
        while True:
            x = tuple(rng.randrange(self.p) for _ in range(self.e))
            if x != self.zero or not nonzero:
                return x

    def format(self, x) -> str:
        """The text form gfrecip prints and parses ("2+t^2", "3*t")."""
        if self.e == 1:
            return str(x[0])
        terms = []
        for k, c in enumerate(x):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
        return "+".join(terms) if terms else "0"

    # -- polynomials -----------------------------------------------------------

    def trim(self, f):
        zero = self.zero
        while f and f[-1] == zero:
            f.pop()
        return f

    def poly_mul(self, f, g):
        if not f or not g:
            return []
        zero, add, mul = self.zero, self.add, self.mul
        out = [zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a != zero:
                for j, b in enumerate(g):
                    out[i + j] = add(out[i + j], mul(a, b))
        return self.trim(out)

    def poly_divmod(self, f, g):
        """Quotient and remainder by a monic g."""
        rem = list(f)
        db = len(g) - 1
        if len(rem) - 1 < db:
            return [], self.trim(rem)
        quo = [self.zero] * (len(rem) - db)
        for k in range(len(rem) - 1 - db, -1, -1):
            c = rem[k + db]
            if c != self.zero:
                quo[k] = c
                for j, b in enumerate(g):
                    rem[k + j] = self.sub(rem[k + j], self.mul(c, b))
        return self.trim(quo), self.trim(rem[:db])

    def poly_format(self, f) -> str:
        return ",".join(self.format(c) for c in f) if f else "0"

    def quadratic_transform(self, g, a):
        """x^n g(x + a/x) for monic g of degree n."""
        n = len(g) - 1
        out = [self.zero] * (2 * n + 1)
        power = [self.one]  # (x^2 + a)^i
        for i, c in enumerate(g):
            if c != self.zero:
                for j, pc in enumerate(power):
                    out[n - i + j] = self.add(out[n - i + j], self.mul(c, pc))
            shifted = [self.zero, self.zero] + power
            for j, pc in enumerate(power):
                shifted[j] = self.add(shifted[j], self.mul(a, pc))
            power = shifted
        return self.trim(out)

    def master(self, a, n: int):
        """x^(q^n + 1) - a, divided by x^2 - a when that divides it
        (a a square, or n even)."""
        h = [self.neg(a)] + [self.zero] * self.q ** n + [self.one]
        if n % 2 == 1 and not self.is_square(a):
            return h
        quo, rem = self.poly_divmod(h, [self.neg(a), self.zero, self.one])
        if rem:
            raise ValueError("x^2 - a does not divide the master polynomial")
        return quo

    def parity_verdict(self, f, a) -> str:
        """The parity criterion's verdict on a nontrivial a-srm f of
        degree 2n: the sign of (-1)^n a^(n(n-2)) (A^2 - a B^2), A and B
        the even- and odd-index coefficient sums weighted by powers of a."""
        n = (len(f) - 1) // 2
        even = odd = self.zero
        power = self.one
        for i in range(0, 2 * n + 1, 2):
            even = self.add(even, self.mul(f[i], power))
            if i + 1 <= 2 * n:
                odd = self.add(odd, self.mul(f[i + 1], power))
            power = self.mul(power, a)
        value = self.sub(self.mul(even, even), self.mul(a, self.mul(odd, odd)))
        indicator = self.mul(value, self.pow(a, n * (n - 2)))
        if n % 2 == 1:
            indicator = self.neg(indicator)
        if indicator == self.zero:
            return "not_applicable"
        return "even" if self.is_square(indicator) else "odd"


def mobius(d: int) -> int:
    out, k = 1, 2
    while k * k <= d:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return 0
            out = -out
        k += 1
    return -out if d > 1 else out


def srim_count(q: int, a_is_square: bool, n: int) -> int:
    """Closed-form count of nontrivial a-self-reciprocal irreducible
    monic polynomials of degree 2n over F_q, q odd."""
    if n == 1:
        return (q - 1) // 2 if a_is_square else (q + 1) // 2
    if n & (n - 1) == 0:
        total = q ** n - 1
    else:
        total = sum(mobius(d) * q ** (n // d) for d in range(1, n + 1, 2) if n % d == 0)
    return total // (2 * n)


def master_degrees(n: int) -> list[int]:
    """The d with d | n and n/d odd; m_poly's factors have degrees 2d."""
    return [d for d in range(1, n + 1) if n % d == 0 and (n // d) % 2 == 1]
