"""Dense univariate polynomials over a finite field.

Coefficients are stored ascending (index = degree); the zero polynomial
is the empty tuple and has degree -1.  Polynomials are immutable values
with overloaded ``+ - * ** // % divmod`` and call-for-evaluation.  The
module-level functions supply the ring utilities the rest of the package
needs: monic gcd, modular powering, resultants, discriminants and a
squarefreeness test, gcd(f, f'), which is f itself when f is a p-th
power and f' vanishes.

Text formats: ``to_string`` emits comma-separated ascending coefficients
("4,1,2,4,3,1,1"), the round-trippable form used by the command line;
``pretty`` emits the usual descending human form ("x^6+x^5+3x^4+...").

Coefficients are held as their field's int codes (see field.py), so one
multiplication, division and evaluation kernel serves every F_q: each
accumulates sums of products as plain ints and reduces a coefficient
only when it is read or returned.  ``coeffs``, indexing and ``lc()``
hand out ``FieldElement``s.

Division with remainder is one loop on code lists, ``_remainder``, and
it serves ``divmod``, ``gcd``, ``resultant`` and ``pow_mod`` alike.  It
reduces a list in place: each quotient term, highest first, is reduced,
negated on its own (times -lc^-1 of the divisor) and added times the
divisor's codes, so the divisor itself is never negated or copied into a
``Poly``.  The list may hold unreduced sums of products of codes, such
as the schoolbook product's (``_sums``): the loop reduces each entry it
reads, and the remainder's entries once, at the end, also when the list
is shorter than the divisor.  ``resultant`` runs its whole remainder
sequence on two such lists and builds an element only for the answer.
Every call lists the divisor's nonzero codes once and walks only them,
so the walk's x^(q^d) - x costs only its few nonzero codes.

``gcd`` runs on such lists too once the shorter operand has fewer than
``GCD_PACKED_MIN`` coefficients.  Above that it runs the remainder
sequence on two packed ints (``Field._kron_pack``), in slots with room
for a code plus one product of two codes per coefficient of the shorter
operand.  A step divides a by b, of degree gap t: it reads the top t + 1
codes of each (``Field._kron_unpack``; in bulk for a large t, as in the
walk's gcd(x^(q^d) - x, f)), solves for the t + 1 quotient codes from
those alone (``_remainder`` on those codes), and takes quotient * b +
(p - 1) a, one bigint product and one scalar one.  That is -(a mod b),
as a times the code p - 1 is -a; gcd's answer is monic, so the sign
never matters and no code is negated.  One fold from ``Field._folder``
reduces every slot, the top t + 1 slots come out zero, and the new
degree is the value's bit length over the slot width.  gcd binds that
fold once, for a's slot count: no later value has more slots, and a
zero slot stays zero, so it serves every step.  Each step costs
a few bigint operations on the whole remainder instead of one reduction
per coefficient (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 3 and 9).

Multiplication is likewise one kernel on code lists, ``_mul``, and it
serves ``*``.  Once both operands have at least ``KRON_MIN_LENGTH``
coefficients it takes one bigint product (Kronecker substitution): each
operand is packed into a single int with one byte-aligned slot per
coefficient, wide enough that the convolution never carries between
slots, and the interpreter's Karatsuba multiplier does the work; the
product is folded to codes and read back.  Below that length its
schoolbook loop, ``_sums``, is faster, and it stays the reference in the
tests; ``_mul`` reduces its sums, ``pow_mod`` takes them unreduced.

``pow_mod`` makes the modulus f monic (the remainders are the same) and
runs field.py's one powering ladder, ``_ladder``, over one of two
reductions.  Below degree N = ``KRON_MIN_LENGTH`` a step is ``_sums``
and ``_remainder`` on code lists, with no quotient and no ``Poly``
built: the schoolbook product's sums go to ``_remainder`` unreduced, so
each coefficient is reduced once, where the division reads it.
From there on the ladder works on packed ints alone.  For f of degree n
it binds one fold of n slots (``Field._folder``), which reduces every
slot of a value of at most n slots to a code, and with it precomputes
mu = x^(2n-2) div f, by Newton iteration on packed ints (the inverse of
the reversed f, two products and two folds a doubling), and -f mod x^n.
A square or product v of degree <= 2n-2 then reduces by two more bigint
products: its quotient is (v div x^n) * mu div x^(n-2), and its
remainder is v mod x^n - quotient * f mod x^n (Barrett reduction; von
zur Gathen & Gerhard, Modern Computer Algebra, ch. 9).  Its high half,
quotient and remainder all pass through that fold, so the ladder builds
no coefficient list between steps.  That set-up, ``_barrett(f)``, is the
slot width and ``mulmod``, the product mod f of two packed residues with
its shifts and masks bound.  It lives on the monic modulus: built on the
first ``pow_mod`` by f, it is kept in f's ``_setup`` slot, so a caller
that powers again and again by one modulus object (the distinct-degree
walk and the equal-degree draws in factor.py) builds it once.
``pow_mod`` is the only routine that powers mod a ``Poly`` (square roots
power pairs of codes mod x^2 - w in field.py).
"""

from __future__ import annotations

from .errors import DomainError, FieldMismatchError
from .field import Field, FieldElement, _ladder


# Operands with at least this many coefficients are multiplied by
# Kronecker substitution, and pow_mod reduces by a modulus of at least
# this degree with a precomputed inverse; shorter ones take the schoolbook
# product and _remainder, which are faster there.  Packed, the product of two
# length-n operands wins from n = 8 over F_9, F_125 and F_17^2 and from 9 or 10
# over F_3, F_5, F_7, F_257 and F_8191; the Barrett ladder, its set-up built
# for one pow_mod(h, q, f), from degree 4 to 6 over F_257, F_8191, F_9, F_125,
# F_17^2 and F_3^6, 7 or 8 over F_5 and F_7, and past 9 over F_3.  8 serves both.
KRON_MIN_LENGTH = 8

# gcd runs its remainder sequence on packed ints while the shorter operand
# has at least this many coefficients, and on code lists below.  Measured
# as the length from which a packed step costs less than a code-list one
# (gcd of random pairs of degrees n and n - 1, all packed against all
# lists): from n = 40 to 64 over F_3, F_7, F_257 and F_8191, and 32 to 40
# over F_9, F_169, F_125 and F_3^6; 48 serves both.
GCD_PACKED_MIN = 48


def _mul(fld: Field, a, b) -> list[int]:
    """The codes of the product of two code sequences, len(a) + len(b) - 1
    of them (none if either is empty): one bigint product once both have
    ``KRON_MIN_LENGTH`` codes, where a squaring packs once and lets the
    int multiplier see it, and the schoolbook loop below that."""
    if len(a) >= KRON_MIN_LENGTH <= len(b):
        nbytes = fld._kron_bytes(min(len(a), len(b)))
        pack = fld._kron_pack
        va = pack(a, nbytes)
        vb = va if a is b else pack(b, nbytes)
        n = len(a) + len(b) - 1
        return fld._kron_unpack(fld._folder(nbytes, n)(va * vb), nbytes, n)
    reduce = fld._reduce
    return [reduce(v) for v in _sums(a, b)]


def _sums(a, b) -> list[int]:
    # the schoolbook product of two code sequences, its sums of products
    # left unreduced (none if either is empty)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return out


class Poly:
    # _setup: (slot bytes, mulmod), pow_mod's reduction set-up by this monic
    # modulus of degree >= KRON_MIN_LENGTH, set on first use (see _barrett);
    # a Poly never changes, so it never goes stale
    __slots__ = ("field", "_codes", "_setup")

    def __init__(self, field: Field, coeffs=()):
        codes = [c.code if isinstance(c, FieldElement) and c.field is field
                 else field.element(c).code for c in coeffs]
        while codes and not codes[-1]:
            codes.pop()
        self.field = field
        self._codes = tuple(codes)

    @classmethod
    def _raw(cls, field, codes):
        # internal: a list or tuple of canonical codes, trailing zeros
        # allowed.  Callers pass lists rather than generators: a tuple
        # built from a generator is resized as it grows, which drains the
        # interpreter's tuple free lists of one size into the others.
        n = len(codes)
        while n and not codes[n - 1]:
            n -= 1
        p = object.__new__(cls)
        p.field = field
        p._codes = tuple(codes[:n])
        return p

    # -- constructors ---------------------------------------------------------

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls._raw(field, (0, 1))

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls._raw(field, (1,))

    @classmethod
    def constant(cls, field: Field, value) -> "Poly":
        return cls(field, (value,))

    @classmethod
    def from_string(cls, field: Field, text: str) -> "Poly":
        """Parse the comma-separated ascending coefficient form."""
        tokens = [tok.strip() for tok in text.split(",")]
        if not tokens or any(tok == "" for tok in tokens):
            raise DomainError(f"malformed polynomial string {text!r}")
        return cls(field, [field.parse(tok) for tok in tokens])

    # -- basic queries ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        """The coefficients, ascending; empty for the zero polynomial."""
        f = self.field
        return tuple([FieldElement(f, c) for c in self._codes])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._codes) - 1

    def lc(self) -> FieldElement:
        if not self._codes:
            raise DomainError("the zero polynomial has no leading coefficient")
        return FieldElement(self.field, self._codes[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self._codes) and self._codes[-1] == 1

    def __bool__(self):
        return bool(self._codes)

    def __getitem__(self, i: int) -> FieldElement:
        if i < 0:
            raise IndexError("negative coefficient index")
        codes = self._codes
        return FieldElement(self.field, codes[i] if i < len(codes) else 0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self._codes == other._codes
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self._codes))

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field is self.field or other.field == self.field:
                return other
            raise FieldMismatchError("polynomials over different fields")
        if isinstance(other, (int, FieldElement)):
            return Poly(self.field, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._codes, other._codes
        if len(a) < len(b):
            a, b = b, a
        reduce = self.field._reduce
        out = list(a)
        for i, c in enumerate(b):
            out[i] = reduce(out[i] + c)
        return Poly._raw(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field._neg
        return Poly._raw(self.field, [neg(c) for c in self._codes])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        f = self.field
        if isinstance(other, (int, FieldElement)):
            s = f.element(other)
            reduce = f._reduce
            return Poly._raw(f, [reduce(c * s.code) for c in self._codes])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._raw(f, _mul(f, self._codes, other._codes))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise DomainError("negative polynomial power")
        return _ladder(self, k, Poly.__mul__) if k else Poly.one(self.field)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        rem = list(self._codes)
        quo = [0] * max(len(rem) - other.degree, 0)
        _remainder(f, rem, other._codes, quo)
        return Poly._raw(f, quo), Poly._raw(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, point) -> FieldElement:
        """Evaluate by Horner's rule."""
        f = self.field
        x = f.element(point) if isinstance(point, int) else point
        if x.field is not f and x.field != f:
            raise FieldMismatchError("evaluation point from a different field")
        reduce, v = f._reduce, x.code
        acc = 0
        for c in reversed(self._codes):
            acc = reduce(acc * v + c)
        return FieldElement(f, acc)

    # -- calculus & normal forms -------------------------------------------------

    def derivative(self) -> "Poly":
        f = self.field
        reduce, p = f._reduce, f.p
        return Poly._raw(f, [reduce(c * (i % p)) for i, c in enumerate(self._codes) if i])

    def monic(self) -> "Poly":
        if not self:
            raise DomainError("the zero polynomial cannot be made monic")
        if self.is_monic:
            return self
        f = self.field
        reduce, inv = f._reduce, f._inv(self._codes[-1])
        return Poly._raw(f, [reduce(c * inv) for c in self._codes])

    # -- text -----------------------------------------------------------------------

    def to_string(self) -> str:
        """Comma-separated ascending coefficients; inverse of from_string."""
        if not self._codes:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def pretty(self, var: str = "x") -> str:
        """Human form, descending powers, e.g. "x^6+x^5+3x^4+...+4"."""
        if not self._codes:
            return "0"
        parts = []
        coeffs = self.coeffs
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            cs = str(c)
            if "+" in cs or "*" in cs:
                cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            else:
                xs = var if i == 1 else f"{var}^{i}"
                parts.append(xs if c.code == 1 else f"{cs}{xs}")
        return "+".join(parts)

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"Poly({self.field.spec_string()}: {self.to_string()})"


# -- module-level utilities ------------------------------------------------------


def _remainder(fld: Field, rem: list, div, quo: list | None = None) -> None:
    """Reduce the list ``rem`` of codes or unreduced sums of products of
    codes mod the codes ``div`` (nonzero last code) in place, leaving the
    remainder's codes without trailing zeros; store the quotient's codes
    in ``quo`` if given (``len(rem) - deg div`` or more zeros)."""
    db = len(div) - 1
    top = len(rem) - 1 - db
    reduce = fld._reduce
    inv = fld._inv(div[-1])
    ninv = fld._neg(inv)
    # the (j, code) pairs of div's nonzero codes below its top, the only ones added
    low = [(j, dv) for j, dv in enumerate(div[:db]) if dv]
    # rem[k + db] cancels exactly at step k and is never read again
    for k in range(top, -1, -1):
        c = reduce(rem[k + db])
        if c:
            if quo is not None:
                quo[k] = reduce(c * inv)
            c = reduce(c * ninv)
            for j, dv in low:
                rem[k + j] += c * dv
    rem[:] = [reduce(v) for v in rem[:db]]
    while rem and not rem[-1]:
        rem.pop()


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is the zero polynomial."""
    if f.field != g.field:
        raise FieldMismatchError("polynomials over different fields")
    fld = f.field
    a, b = list(f._codes), list(g._codes)
    if len(a) < len(b):
        a, b = b, a
    if len(b) >= GCD_PACKED_MIN:
        # the remainder sequence on packed ints while b is that long; a
        # slot sums one product (a times p - 1) and up to len(b) more
        # (quotient times b); no value has more than na slots, so one fold serves
        nbytes = fld._kron_bytes(len(b) + 1)
        bits = 8 * nbytes
        pack, codes, neg_one = fld._kron_pack, fld._kron_unpack, fld.p - 1
        va, vb, na, nb = pack(a, nbytes), pack(b, nbytes), len(a), len(b)
        fold = fld._folder(nbytes, na)
        while nb >= GCD_PACKED_MIN:
            # the t + 1 quotient codes from the top t + 1 codes of a and of
            # b, then quotient * b - a = -(a mod b), its top t + 1 slots zero
            t = na - nb
            top = min(t + 1, nb)
            rem = [0] * (top - 1) + codes(va >> bits * (na - t - 1), nbytes, t + 1)
            quo = [0] * (t + 1)
            _remainder(fld, rem, codes(vb >> bits * (nb - top), nbytes, top), quo)
            va = fold(pack(quo, nbytes) * vb + neg_one * va)
            va, vb, na, nb = vb, va, nb, -(-va.bit_length() // bits)
        a, b = codes(va, nbytes, na), codes(vb, nbytes, nb)
    while b:
        _remainder(fld, a, b)
        a, b = b, a
    out = Poly._raw(fld, a)
    return out.monic() if a else out


def pow_mod(base: Poly, k: int, modulus: Poly) -> Poly:
    """base**k reduced mod modulus, by ``_ladder``."""
    if modulus.degree < 1:
        raise DomainError("pow_mod modulus must be nonconstant")
    if k < 0:
        raise DomainError("negative exponent in pow_mod")
    f = modulus.monic()  # same remainders, and a unit leading coefficient
    fld = f.field
    if base.field is not fld and base.field != fld:
        raise FieldMismatchError("polynomials over different fields")
    if base.degree >= f.degree:
        base = base % f
    if not k:
        return Poly.one(fld)
    n = f.degree
    if n < KRON_MIN_LENGTH:
        div = f._codes

        def mulmod(a, b):
            # _remainder reduces the sums it reads and the remainder
            rem = _sums(a, b)
            _remainder(fld, rem, div)
            return rem

        return Poly._raw(fld, _ladder(base._codes, k, mulmod))
    try:
        nbytes, mulmod = f._setup
    except AttributeError:
        nbytes, mulmod = f._setup = _barrett(f)
    acc = _ladder(fld._kron_pack(base._codes, nbytes), k, mulmod)
    return Poly._raw(fld, fld._kron_unpack(acc, nbytes, n))


def _barrett(f: Poly):
    # the reduction set-up for the monic f of degree n >= KRON_MIN_LENGTH:
    # slot bytes and the product of two packed residues mod f.  Slots hold
    # up to 2n - 1 products (n - 1 in quo * (-f), n in the low half of the
    # value reduced); one fold of n slots serves all, as zero slots stay zero.
    n = f.degree
    fld = f.field
    nbytes = fld._kron_bytes(2 * n)
    bits = 8 * nbytes
    pack, fold = fld._kron_pack, fld._folder(nbytes, n)
    neg = [fld._neg(c) for c in f._codes]
    # mu reversed is h = rev(f)^-1 mod x^(n-1), by Newton iteration on
    # packed ints: when h is rev(f)^-1 mod x^k and rev(f) h = 1 + x^k e mod
    # x^2k, h - x^k (h e mod x^k) is rev(f)^-1 mod x^2k.  With g = -rev(f),
    # g h = -1 - x^k e, so slots k up of fold(g h) hold -e, and fold(h times
    # them) is -(h e): no code is negated in the loop
    g = pack(neg[::-1], nbytes)
    h = k = 1
    while k < n - 1:
        top = min(2 * k, n - 1)
        mask = (1 << bits * top) - 1
        e = fold((g & mask) * h & mask) >> bits * k
        h |= fold(h * e & ((1 << bits * (top - k)) - 1)) << bits * k
        k = top
    mu = pack(fld._kron_unpack(h, nbytes, n - 1)[::-1], nbytes)
    neg_low = pack(neg[:n], nbytes)
    low_bits, quo_shift = bits * n, bits * (n - 2)
    low_mask = (1 << low_bits) - 1

    def mulmod(a, b):
        # v = a b (2n - 1 slots) mod f: its quotient is (high half * mu) >>
        # (n - 2) slots, and the remainder low half - quo * f needs f mod x^n
        v = a * b
        quo = fold(fold(v >> low_bits) * mu >> quo_shift)
        return fold((quo * neg_low + (v & low_mask)) & low_mask)

    return nbytes, mulmod


def resultant(f: Poly, g: Poly) -> FieldElement:
    """The resultant R(f, g) of two nonzero polynomials.

    Computed by the Euclidean remainder sequence with the classical
    correction factors: R(f, g) = lc(g)^(deg f - deg r) * (-1)^(deg f *
    deg g) * R(g, r) for r = f mod g, with R(c, g) = c^deg(g) at the
    base.  Zero exactly when f and g share a root in the closure.
    """
    if not f or not g:
        raise DomainError("resultant of the zero polynomial")
    if f.field != g.field:
        raise FieldMismatchError("polynomials over different fields")
    fld = f.field
    reduce, power = fld._reduce, fld._pow
    a, b = list(f._codes), list(g._codes)
    acc = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if da == 0:
            return FieldElement(fld, reduce(acc * power(a[0], db)))
        if db == 0:
            return FieldElement(fld, reduce(acc * power(b[0], da)))
        lead = b[-1]
        _remainder(fld, a, b)
        if not a:
            return fld.zero
        acc = reduce(acc * power(lead, da - len(a) + 1))
        if da * db % 2:
            acc = fld._neg(acc)
        a, b = b, a


def discriminant(f: Poly) -> FieldElement:
    """Discriminant of a monic polynomial of degree >= 1.

    D(f) = (-1)^(N(N-1)/2) R(f, f') for monic f of degree N; zero exactly
    when f has a repeated root (including the zero-derivative p-th-power
    case).
    """
    if not f.is_monic:
        raise DomainError("discriminant requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise DomainError("discriminant requires degree >= 1")
    fp = f.derivative()
    if not fp:
        return f.field.zero
    d = resultant(f, fp)
    return -d if (n * (n - 1) // 2) % 2 == 1 else d


def is_squarefree(f: Poly) -> bool:
    """Whether f has no repeated irreducible factor: gcd(f, f') is
    constant.  A p-th power of degree >= 1 has f' == 0, and gcd(f, 0) is
    f made monic, so it is not squarefree.
    """
    if not f:
        raise DomainError("squarefreeness of the zero polynomial")
    return gcd(f, f.derivative()).degree == 0
