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

Division with remainder has two kernels, chosen by size.  The short
one is a loop on code lists, the division walk ``_walk``, and it serves
``divmod``, ``gcd``, ``resultant`` and ``pow_mod``.  It reduces a list
in place by a prepared divisor: its degree and the (j, code) pairs of its
nonzero codes below the top, which times a scale, if one is given, are
-code / lc.  Each step, highest first, reduces the top entry and adds it
(times the scale) times the pairs, so the divisor is never negated in
the loop or copied into a ``Poly``.  The list may hold unreduced sums of
products of codes, such as the schoolbook product's (``_sums``): the
loop reduces each entry it reads, and the remainder's entries once, at
the end, also when the list is shorter than the divisor.  Only nonzero
codes are walked, so the walk's x^(q^d) - x costs only its few.
``_remainder(fld, rem, div, quo)`` lists the divisor's codes as they
are, with the scale -lc^-1, once a call: it serves ``divmod``,
``gcd`` on code lists and in its packed top solves, and ``resultant``,
which runs its whole remainder sequence on two such lists and builds an
element only for the answer.  It stays the reference in the tests.
``pow_mod``'s code-list ladder lists its monic modulus's codes negated,
once a call, with no scale.

``divmod`` takes the long kernel once the divisor and the quotient both
have ``QUOTIENT_MIN`` coefficients: ``_divider``, division by a Newton
reciprocal on packed ints, which ``pow_mod``'s Barrett ladder shares.  For
a divisor b of degree m and quotients of k coefficients it computes mu =
x^(m+k-1) div b once, as the reverse of rev(b)^-1 mod x^k by Newton
iteration (two products and two folds a doubling), and binds one
``Field._folder`` fold of max(m, k) slots, or more where its caller asks
(``_barrett``, for its gcd steps).  Every caller of a fold passes
it the most products of two codes a slot sums, the ``terms`` that
``Field._kron_bytes`` sizes the slots by, so width and fold come from
one count; over F_{p^e} the fold takes one residue pass where the slot
has room for that many.  A value v of codes of degree at most m + k - 1
then divides by two more bigint products and two folds (``mulmod``, on
an unreduced product, folds its high half first): its quotient is (v div x^m) mu div
x^(k-1), and its remainder v mod x^m - quotient * b mod x^m needs only
the low m codes of b (Barrett reduction; von zur Gathen & Gerhard,
Modern Computer Algebra, 9.1 and ch. 14).  So an exact division f // g,
one per split in factor.py, costs a few bigint products instead of deg f
* deg g code products.

``gcd`` runs on code lists when the shorter operand has fewer than
``GCD_PACKED_MIN`` coefficients.  From that length on it enters the
remainder sequence on two packed ints (``Field._kron_pack``), in slots
with room for a code plus one product of two codes per coefficient of
the shorter operand, and stays there until the remainder is a constant
(the gcd is 1) or zero: the constant decides entry only.  A step takes
a, of degree gap t over b, to a nonzero multiple of a mod b: one bigint
product pair and one fold from ``Field._folder`` reduce every slot, the
top t + 1 slots come out zero, and the new degree is the value's bit
length over the slot width.  Nearly every step has t <= 1, and it is a
pseudo-remainder step (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R) on the
top two slots a1, a0 and b1, b0 of a and of b, cut out by shift and mask
and used as they are.  A slot holds a code's coordinates in its
sub-slots, so the product of two slots is a slot of sums of products,
the layout the fold reduces.  The quotient times b1^(t+1) is a1 (t = 0)
or a1 b1 x + a0 b1 - a1 b0 (t = 1), whose three codes one more fold
reduces, and q * b - b1^(t+1) * a is the step: no field inverse, no code
read or packed, no ``_reduce`` or ``_remainder`` call.  A difference is
taken as a sum with P - c, P the slot with every coordinate p, so no
coordinate goes negative.  A step with 2 <= t <= ``STAGED_GAP_MAX`` over
a divisor of t + 3 slots or more, in a gcd whose fold serves at most
``STAGED_SLOTS_MAX`` slots, runs Algorithm R's t + 1 stages on the
top t + 1 slots of a, with the quotient q and the scale s = -b1^(t+1)
in the same int, one fold a stage, and ends in the same q * b + s * a:
no inverse and no code read either.  A longer step, rare but for the
walk's gcd(x^(q^d) - x, f), whose gaps reach deg f over divisors of a
few codes, reads the top t + 1 codes of each, solves for the t + 1
quotient codes from those alone (``_remainder`` on those codes, which
skips zero codes), and takes quotient * b + (p - 1) a = -(a mod b), as a
times the code p - 1 is -a.  Stages there would cost a fold of the
window each, quadratic in t, and a fold costs its bound's width.  gcd's answer is monic, so no scale or sign
matters, and a is read only when b reaches zero.  gcd binds its fold
once, for a's slot count and len(b) + 1 terms: no later value has more
slots, and a zero slot stays zero, so it serves every step.  A step
whose remainder is not shorter than its divisor raises
``VerificationError``, so a faulty fold cannot loop for ever.  The step
is one private closure, ``_stepper``'s, which ``gcd`` and
``_power_gcd`` share with the loop that runs it, ``_packed_gcd``.  Each step
costs a few bigint operations on the whole remainder instead of one
reduction per coefficient (von zur Gathen & Gerhard, ch. 3 and 9).

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
reductions, chosen by the work the ladder will do.  Below degree N =
``KRON_MIN_LENGTH`` a short ladder, whose degree n times the exponent's
bit length stays below ``BARRETT_MIN_WORK`` (Ben-Or's steps power by q),
and every ladder at degree 1 take code lists.  The ladder prepares monic
f once a call, its negated low codes and no inverse, and reduces the
base and every step by ``_walk``: a step is ``_sums`` and the walk, one
reduction a quotient code, with no ``Poly`` built.  The schoolbook
product's sums go to the walk unreduced, so each coefficient is reduced
once, where the division reads it.
Every other ladder works on packed ints alone: from degree N on, and
from degree 2 on a long exponent, such as an equal-degree draw's
(q^d - 1)/2.  For f of degree n its set-up, ``_barrett(f)``, is the slot
width and ``_divider``'s ``mulmod`` for k = n - 1, both for 2n terms,
the product mod f of two packed residues, whose product has degree at
most 2n - 2; the high half, quotient and remainder all pass through the
one fold, so the ladder builds no coefficient list between steps.  It
is paid once per modulus and pays off over the ladder's steps.  It lives
on the monic modulus: built on the first Barrett ladder by f, it is kept
in f's ``_setup`` slot, so a caller that powers again and again by one
modulus object (the distinct-degree walk and the equal-degree draws in
factor.py) builds it once.
The set-up also holds a fold bound once for f's n + 1 slots, which the
ladder's ``mulmod`` and gcd steps by f share, that step and f packed.
``_power_gcd(r, k, f)``, one equal-degree draw, returns the monic
gcd(r^k mod f - 1, f) on the ladder ``pow_mod`` would take (one rule,
``_list_ladder``): on Barrett's it stays in slots from the power to the
gcd, h - 1 being one change to coordinate 0 of slot 0, and an h of one
slot ends the draw with no gcd (h = 1 gives f, another constant 1).  Its
gcd runs packed on the set-up at every length, as the set-up leaves no
entry cost to weigh against ``GCD_PACKED_MIN``; on the code-list ladder
it runs on code lists, with no ``Poly`` built.
``pow_mod`` is the only routine that powers mod a ``Poly`` (square roots
power pairs of codes mod x^2 - w in field.py).
"""

from __future__ import annotations

from .errors import DomainError, FieldMismatchError, VerificationError
from .field import Field, FieldElement, _ladder


# Operands with at least this many coefficients are multiplied by
# Kronecker substitution; shorter ones take the schoolbook product, which is
# faster there.  Packed, the product of two length-n operands wins from n = 8
# over F_9, F_125 and F_17^2 and from 9 or 10 over F_3, F_5, F_7, F_257 and
# F_8191.  pow_mod also takes the Barrett ladder from this degree on whatever
# the exponent, so that the walk's short q-power ladders by one modulus share
# one set-up.
KRON_MIN_LENGTH = 8

# Below degree KRON_MIN_LENGTH pow_mod(b, k, f), f of degree n >= 2, takes
# the Barrett ladder once n * k.bit_length() reaches this: its set-up is paid
# once a call and pays off over the ladder's steps.  Measured per call, set-up
# included, on 20 random monic f and bases per cell at exponent bit lengths 3
# to 16 (geometric mean of four runs, 2 vCPU host, CPython 3.11), Barrett costs
# less at every bit length from this one on:
#
#   degree     2    3    4    5    6    7
#   F_3      >16   13    9    9    8    6
#   F_7       13    9   11    8    6    5
#   F_257    >16   12    8    6    5    4
#   F_9      >16  >16    9    6    5    4
#   F_5^3    >16   12    7    5    5    4
#   F_13^2   >16   15    7    5    4    4
#
# One bound on n * bits serves best: applied to every cell of the table, 32
# to 35 cost 0.6 to 0.9% over the cheaper ladder of each cell, 28 and 40
# 1.3%.  At degree 2 no field but F_7 gains by Barrett up to 16 bits (F_9,
# F_13^2 and F_5^3 take 1.24 to 1.38 times as long at 16), but Ben-Or's steps
# power by q and a degree-2 draw by (q - 1)/2, so no such call is made.
BARRETT_MIN_WORK = 32

# gcd enters its remainder sequence on packed ints when the shorter operand
# has at least this many coefficients, and then runs it there to the end, so
# the constant decides entry only; below it gcd runs on code lists.  Measured
# as the code-list time over the packed time of gcd on 8 random pairs of
# degrees L - 1 and L - 2 (median of three runs, each the best of 9
# interleaved rounds; 2 vCPU host, CPython 3.11; read each cell as +-10%),
# with steps of degree gap 2 and 3 on Algorithm R's stages:
#
#   L            8    12    16    20    24    28    32    40    60
#   F_3        0.54  0.64  0.80  0.87  0.95  1.15  1.04  1.29  1.63
#   F_7        0.66  0.72  1.05  1.25  1.36  1.38  1.57  1.81  2.33
#   F_257      0.97  1.20  1.40  1.56  1.69  1.86  2.02  2.32  2.92
#   F_8191     1.04  1.26  1.44  1.63  1.82  1.99  2.16  2.37  3.01
#   F_9        1.42  1.88  2.11  2.65  2.33  2.50  3.19  3.89  4.67
#   F_13^2     2.38  2.55  3.11  3.54  3.90  4.23  4.58  3.74  4.23
#   F_5^3      2.65  2.78  3.32  3.72  4.07  4.29  4.86  5.24  5.92
#   F_3^6      2.81  3.55  3.90  4.25  4.34  4.53  4.74  5.07  5.03
#
# F_3 holds from 24 and gains from 28 (it gained from 32 while every step
# of gap 2 or more paid a top solve), F_7 from 16, the other fields from 8.
# No entry from 8 to 16 holds on every field (F_3 loses 20% at 16), so the
# constant stays 24.  One constant serves all: entering at 8 or at 12, which
# would keep the extension fields' gain below 24, moved the oracle-ext
# benchmark's wall_s by no more than its noise (+-3% over two alternating
# 10 s rounds), as such short gcds take little of a factorization.
GCD_PACKED_MIN = 24

# A packed gcd step of degree gap 2 <= t <= STAGED_GAP_MAX, over a divisor of
# at least t + 3 slots, runs Algorithm R's t + 1 stages on the top slots (one
# fold a stage, see _stepper); a longer gap reads the top codes and solves
# for the quotient on code lists.  Measured as the solve's time over the
# stages' time for one step with a divisor of nb slots (5 random pairs, each
# the best of 5; 2 vCPU host, CPython 3.11; read each cell as +-10%):
#
#   t              2     3     4     5     6     8    12
#   F_3     nb 60  2.27  2.26  2.03  1.98  1.93  1.87  1.57
#   F_257   nb 60  1.78  1.75  1.63  1.36  1.49  1.61  1.36
#   F_9     nb 150 1.34  1.35  1.22  1.19  1.21  1.04  0.95
#   F_3^4   nb 26  1.45  1.40  1.37  1.19  1.09  0.95  0.84
#   F_3^4   nb 150 1.01  0.98  0.89  0.89  0.84  0.78  0.72
#   F_7^2   nb 150 1.37  1.32  1.23  1.17  1.15  1.06  0.97
#   F_5^3   nb 150 1.19  1.09  1.07  1.04  1.00  0.94  0.87
#   F_13^2  nb 150 0.98  0.95  1.04  0.99  0.97  0.94  0.79
#
# (F_5 and nb 26 and 60 of every field lie between these rows.)  A stage
# costs one fold of the window, so the stages lose where the field's fold is
# dear and the window long: up to t = 3 every cell holds or gains, at 4
# F_3^4 loses.  The walk's long gaps (up to deg f over a divisor of a few
# codes) stay on the solve, which skips zero codes: stages for every gap
# made walk-only F_3 n=9 take 73 s against 0.77 s.
STAGED_GAP_MAX = 3

# A step takes those stages only while its fold serves at most this many
# slots: a fold costs its bound's width even on a stage's few.  Measured as
# above, t = 2
# and nb = 30 and 200, with the fold bound for B slots:
#
#   B        250   500  1000  2000  4000
#   F_3     1.77  1.38  1.14  0.98  0.71
#   F_7     1.61  1.23  1.07  0.85  0.62
#   F_9     1.20  1.07  0.86  0.55  0.46
#   F_7^2   1.94  1.89  1.25  1.00  0.74
#   F_3^4   1.65  1.15  1.06  0.84  0.69
#
# Full F_3 n=9, whose draws' gcds fold for 19657 slots, read 8.44 s
# against 7.87 s (medians of 8 alternating pairs) with stages at every
# bound.  The oracle benchmarks' gcds fold for at most 345 slots.
STAGED_SLOTS_MAX = 500

# divmod takes the Newton quotient once the divisor and the quotient both have
# at least this many coefficients, and the code-list walk below.  Measured as
# the code-list time over the Newton time of divmod with divisor and quotient
# of n coefficients each (10 random pairs, best of 15 interleaved rounds, same
# host):
#
#   n          24    32    40    48    64    96
#   F_3       0.58  0.89  0.96  1.34  2.09  2.71
#   F_7       0.67  1.15  1.36  1.73  2.97  4.53
#   F_257     0.86  1.47  2.08  2.44  3.75  5.79
#   F_8191    0.90  1.33  1.92  2.26  3.34  3.43
#   F_9       0.92  1.23  1.52  1.50  2.57  3.25
#   F_13^2    0.83  1.46  1.46  1.97  3.35  3.88
#   F_5^3     0.72  1.28  1.86  1.50  2.25  3.90
#   F_3^6     0.82  0.92  1.08  1.21  1.41  1.72
#
# At 32 F_3 and F_3^6 still lose; from 40 every field gains or holds.
QUOTIENT_MIN = 40


def _mul(fld: Field, a, b) -> list[int]:
    """The codes of the product of two code sequences, len(a) + len(b) - 1
    of them (none if either is empty): one bigint product once both have
    ``KRON_MIN_LENGTH`` codes, where a squaring packs once and lets the
    int multiplier see it, and the schoolbook loop below that."""
    if len(a) >= KRON_MIN_LENGTH <= len(b):
        terms = min(len(a), len(b))
        nbytes = fld._kron_bytes(terms)
        pack = fld._kron_pack
        va = pack(a, nbytes)
        vb = va if a is b else pack(b, nbytes)
        n = len(a) + len(b) - 1
        return fld._kron_unpack(fld._folder(terms, n)(va * vb), nbytes, n)
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
    # _setup: _barrett's reduction set-up by this monic modulus, set on its
    # first Barrett ladder (see _barrett, pow_mod and _power_gcd);
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
        a, b = self._codes, other._codes
        if len(b) >= QUOTIENT_MIN <= len(a) - len(b) + 1:
            # the Newton division; slots sum at most k + 1 products
            k = len(a) - len(b) + 1
            nbytes = f._kron_bytes(k + 1)
            quo, rem = _divider(f, b, k, k + 1)[0](f._kron_pack(a, nbytes))
            unpack = f._kron_unpack
            return (Poly._raw(f, unpack(quo, nbytes, k)),
                    Poly._raw(f, unpack(rem, nbytes, len(b) - 1)))
        rem = list(a)
        quo = [0] * max(len(rem) - other.degree, 0)
        _remainder(f, rem, b, quo)
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
    reduce, inv = fld._reduce, fld._inv(div[-1])
    # div's codes as they are, each step's top code scaled by -lc^-1
    _walk(reduce, rem, db, [(j, dv) for j, dv in enumerate(div[:db]) if dv], fld._neg(inv), quo)
    if quo is not None:
        quo[:] = [reduce(c * inv) for c in quo]


def _walk(reduce, rem: list, db: int, low, scale=None, quo: list | None = None) -> None:
    # the division walk: rem mod a divisor of degree db in place.  low holds
    # the (j, code) pairs of the divisor's nonzero codes below its top, and
    # those codes times scale, if given, are -code / lc.  Step k, from the
    # top, reduces c = rem[k + db], keeps it in quo[k] if given, and adds c
    # (times scale) times each pair to rem[k + j]; rem[k + db] cancels
    # exactly and is never read again
    for k in range(len(rem) - 1 - db, -1, -1):
        c = reduce(rem[k + db])
        if c:
            if quo is not None:
                quo[k] = c
            if scale is not None:
                c = reduce(c * scale)
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
    if len(b) < GCD_PACKED_MIN:
        return _list_gcd(fld, a, b)
    # the remainder sequence on packed ints until b is a constant or zero; a
    # slot sums up to len(b) + 1 products (see _stepper), and no value has
    # more than len(a) slots, so one fold serves
    terms = len(b) + 1
    nbytes = fld._kron_bytes(terms)
    pack = fld._kron_pack
    step = _stepper(fld, nbytes, fld._folder(terms, len(a)), len(a))
    return _packed_gcd(fld, nbytes, step, pack(a, nbytes), len(a), pack(b, nbytes), len(b))


def _list_gcd(fld: Field, a: list, b: list) -> Poly:
    # the monic gcd of two code lists by the code-list division, in place
    while b:
        _remainder(fld, a, b)
        a, b = b, a
    out = Poly._raw(fld, a)
    return out.monic() if a else out


def _packed_gcd(fld: Field, nbytes: int, step, va: int, na: int, vb: int, nb: int) -> Poly:
    # the monic gcd of a and b, packed in nbytes-byte slots, na >= nb slots:
    # steps until b is a nonzero constant (the gcd is 1) or zero (it is a's,
    # read once)
    while nb >= 2:
        vr, nr = step(va, na, vb, nb)
        va, na, vb, nb = vb, nb, vr, nr
    if nb:
        return Poly.one(fld)
    return Poly._raw(fld, fld._kron_unpack(va, nbytes, na)).monic()


def _stepper(fld: Field, nbytes: int, fold, slots: int):
    """gcd's packed remainder step on ints of ``nbytes``-byte slots, each
    slot a code, reduced by ``fold``, bound for ``slots`` slots:
    step(va, na, vb, nb), for a of na <= slots slots over b of 2 <= nb <=
    na, gives (v, n), v = q b + s a a nonzero multiple of a mod b, packed in
    n < nb slots.  A slot sums up to nb + 1 products of two codes, so
    ``fold`` must serve nb + 1 terms.  A step whose remainder is not shorter
    than b raises ``VerificationError``: a faulty fold cannot loop for
    ever."""
    bits = 8 * nbytes
    slot, neg_one, codes = (1 << bits) - 1, fld.p - 1, fld._kron_unpack
    # a slot of every coordinate p: minus - c is -c with no sub-slot negative.
    # A factor P - c has coordinates up to p, and (p-1) p <= 2 (p-1)^2, so a
    # product with it counts as two
    minus = fld._kron_pack([fld._pack([fld.p] * fld.e)], nbytes)
    # the longest gap that takes Algorithm R's stages (see STAGED_SLOTS_MAX)
    gap_max = STAGED_GAP_MAX if slots <= STAGED_SLOTS_MAX else 1

    def stages(w, t, vb, nb):
        # Algorithm R on w, a's top t + 1 slots (the window), by bt, b's top
        # t + 1 slots, with s and q above the window in the same int, of 2t +
        # 3 slots: stage i, from t down, reads c, the window's slot i, and
        # sets window <- b1 window - c x^i bt, q <- b1 q + c x^i and s <- b1
        # s, s from -1, which clears slot i, in one fold.  A slot of bt below
        # the window's slot 0 cannot reach the quotient, so it is dropped.  A
        # window slot sums three products (b1 times it, one with P - c), a q
        # slot one and a code
        b1 = vb >> bits * (nb - 1)
        # bt with b1 at slot t; its cut at stage i is bt >> bits * (t - i)
        bt = vb >> bits * (nb - t - 1)
        w |= neg_one << bits * (t + 1)
        for i in range(t, -1, -1):
            c = w >> bits * i & slot
            w = fold(b1 * w + (minus - c) * (bt >> bits * (t - i)) + (c << bits * (t + 2 + i)))
        return w >> bits * (t + 2), w >> bits * (t + 1) & slot

    def step(va, na, vb, nb):
        t = na - nb
        if t < 2:
            # one stage (t = 0) or two (t = 1) on the top two slots a1, a0
            # of a and b1, b0 of b, as they are: q is a1 or a1 b1 x + a0 b1 -
            # a1 b0, s is -b1^(t+1), and t = 1's q and s, products of two
            # slots, take one fold
            a1, b1 = va >> bits * (na - 1), vb >> bits * (nb - 1)
            if t:
                a0, b0 = va >> bits * (na - 2) & slot, vb >> bits * (nb - 2) & slot
                v = fold(a1 * b1 << 2 * bits | a0 * b1 + a1 * (minus - b0) << bits
                         | b1 * (minus - b1))
            else:
                v = a1 << bits | minus - b1
            q, s = v >> bits, v & slot
        elif t <= gap_max and nb >= t + 3:
            q, s = stages(va >> bits * (nb - 1), t, vb, nb)
        else:
            # the t + 1 quotient codes from the top t + 1 codes of a and of
            # b (in bulk for a large t, as in the walk's gcd(x^(q^d) - x,
            # f)), then quotient * b - a = -(a mod b), a times p - 1 being -a
            top = min(t + 1, nb)
            rem = [0] * (top - 1) + codes(va >> bits * (na - t - 1), nbytes, t + 1)
            quo = [0] * (t + 1)
            _remainder(fld, rem, codes(vb >> bits * (nb - top), nbytes, top), quo)
            q, s = fld._kron_pack(quo, nbytes), neg_one
        # a slot sums at most min(t + 1, nb) products in q b and one in s a,
        # two where s is P - b1 (t = 0): at most nb + 1
        v = fold(q * vb + s * va)
        n = -(-v.bit_length() // bits)
        if n >= nb:
            # a remainder shorter than its divisor is exact arithmetic;
            # without this a faulty step would loop for ever
            raise VerificationError(f"packed gcd step left {n} of {nb} slots")
        return v, n

    return step


def _list_ladder(n: int, k: int) -> bool:
    # whether powering by k mod a degree-n modulus takes the code-list ladder
    # rather than Barrett's: degree 1, or a ladder too short to pay for a set-up
    return n < KRON_MIN_LENGTH and (n < 2 or n * k.bit_length() < BARRETT_MIN_WORK)


def _list_power(base: Poly, k: int, f: Poly) -> list:
    # pow_mod's code-list ladder for k >= 1: the walk by monic f's low codes,
    # listed and negated once, so no scale and no inverse
    fld, n = f.field, f.degree
    reduce, neg = fld._reduce, fld._neg
    low = [(j, neg(c)) for j, c in enumerate(f._codes[:n]) if c]

    def mulmod(a, b):
        # the walk reduces the sums it reads and the remainder
        rem = _sums(a, b)
        _walk(reduce, rem, n, low)
        return rem

    rem = list(base._codes)
    _walk(reduce, rem, n, low)
    return _ladder(rem, k, mulmod)


def _barrett_setup(f: Poly):
    # monic f's Barrett set-up (see _barrett), built on first use and kept
    try:
        return f._setup
    except AttributeError:
        f._setup = _barrett(f)
        return f._setup


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
    if not k:
        return Poly.one(fld)
    n = f.degree
    if _list_ladder(n, k):
        return Poly._raw(fld, _list_power(base, k, f))
    if base.degree >= n:
        base = base % f
    nbytes, mulmod = _barrett_setup(f)[:2]
    acc = _ladder(fld._kron_pack(base._codes, nbytes), k, mulmod)
    return Poly._raw(fld, fld._kron_unpack(acc, nbytes, n))


def _power_gcd(r: Poly, k: int, f: Poly) -> Poly:
    """The monic gcd(r^k mod f - 1, f), for monic f of degree >= 1 and k >=
    1: one equal-degree draw.  It powers on the ladder ``pow_mod`` would
    take.  On Barrett's it stays on f's set-up from the power to the gcd:
    h - 1 is one change to slot 0, and the gcd's steps take f packed and
    the set-up's fold, at every length.  On the code-list ladder the gcd
    runs on code lists."""
    fld, n = f.field, f.degree
    if _list_ladder(n, k):
        h = _list_power(r, k, f)
        h[:1] = [fld._reduce(h[0] + fld.p - 1)] if h else [fld.p - 1]
        while h and not h[-1]:
            h.pop()
        return _list_gcd(fld, list(f._codes), h)
    if r.degree >= n:
        r = r % f
    nbytes, mulmod, step, vf = _barrett_setup(f)
    v = _ladder(fld._kron_pack(r._codes, nbytes), k, mulmod)
    # minus 1 on coordinate 0 of slot 0, the low sub-slot: no carry, no fold
    v = v - 1 if v & (1 << 8 * (nbytes // (2 * fld.e - 1))) - 1 else v + fld.p - 1
    nb = -(-v.bit_length() // (8 * nbytes))
    if nb < 2:
        # h - 1 zero: r^k = 1 mod f; a nonzero constant: gcd 1
        return Poly.one(fld) if nb else f
    # packed at every length, below GCD_PACKED_MIN too: f is packed and the
    # fold bound once per modulus, so a draw pays none of the entry cost that
    # gcd's table weighs.  With gcd's entry instead (short h - 1 read once,
    # Euclid on code lists), oracle-ext's wall_s read 0.199/0.200 s against
    # 0.174/0.185 s (alternating 5 s runs, 2 vCPU host), sweep-small no
    # different beyond its noise
    return _packed_gcd(fld, nbytes, step, vf, n + 1, v, nb)


def _divider(fld: Field, b, k: int, terms: int, slots: int = 0):
    """Division by the codes ``b`` (nonzero last code, degree m) on packed
    ints of ``_kron_bytes(terms)``-byte slots, through mu = x^(m+k-1) div b:
    (divide, mulmod, fold).  divide(v), v of codes of degree at most m + k -
    1, gives the packed quotient and remainder of v by b; mulmod(a, c) is
    the remainder of the product a c, of degree at most m + k - 1, for the
    product of two residues when k = m - 1.  A slot sums up to k + 1
    products in divide, and more in mulmod, whose value is an unreduced
    product (see ``_barrett``): ``terms``, which sizes both the slots and
    the fold.  The one fold has max(m, k, ``slots``) slots: no value here
    has more than max(m, k), and zero slots stay zero."""
    m = len(b) - 1
    nbytes = fld._kron_bytes(terms)
    bits = 8 * nbytes
    pack, fold = fld._kron_pack, fld._folder(terms, max(m, k, slots))
    # mu reversed is rev(b)^-1 mod x^k, by Newton iteration: when h is
    # rev(b)^-1 mod x^j and rev(b) h = 1 + x^j e mod x^2j, h - x^j (h e mod
    # x^j) is rev(b)^-1 mod x^2j.  With g = -rev(b), g h = -1 - x^j e, so
    # slots j up of fold(g h) hold -e, and fold(h times them) is -(h e): no
    # code is negated in the loop
    g = fold((fld.p - 1) * pack(b[:-k - 1:-1], nbytes))
    h, j = pack([fld._inv(b[-1])], nbytes), 1
    while j < k:
        top = min(2 * j, k)
        mask = (1 << bits * top) - 1
        e = fold((g & mask) * h & mask) >> bits * j
        h |= fold(h * e & ((1 << bits * (top - j)) - 1)) << bits * j
        j = top
    mu = pack(fld._kron_unpack(h, nbytes, k)[::-1], nbytes)
    neg_low = fold((fld.p - 1) * pack(b[:m], nbytes))
    low_bits, quo_shift = bits * m, bits * (k - 1)
    low_mask = (1 << low_bits) - 1

    def divide(v):
        # the quotient is (v div x^m) mu div x^(k-1), and the remainder v mod
        # x^m - quotient * b mod x^m needs b mod x^m alone; v's slots are
        # codes, so the high half times mu sums k products a slot, unfolded
        quo = fold((v >> low_bits) * mu >> quo_shift)
        return quo, fold((quo * neg_low + (v & low_mask)) & low_mask)

    def mulmod(a, c):
        # divide's two lines for pow_mod's ladder steps, on the product a c,
        # whose high half is folded first: its slots sum products
        v = a * c
        quo = fold(fold(v >> low_bits) * mu >> quo_shift)
        return fold((quo * neg_low + (v & low_mask)) & low_mask)

    return divide, mulmod, fold


def _barrett(f: Poly):
    # the reduction set-up for the monic f of degree n >= 2, for pow_mod's
    # ladder and the draws of _power_gcd: slot bytes, the product of two
    # packed residues mod f, gcd's step on its fold and f packed.  Slots hold
    # up to 2n - 1 products (n - 1 in quo * (-f), n in the low half of the
    # product reduced), and a gcd step by b of at most n slots sums at most
    # n + 1; the fold has room for f's n + 1 slots
    n, fld = f.degree, f.field
    nbytes = fld._kron_bytes(2 * n)
    mulmod, fold = _divider(fld, f._codes, n - 1, 2 * n, n + 1)[1:]
    return nbytes, mulmod, _stepper(fld, nbytes, fold, n + 1), fld._kron_pack(f._codes, nbytes)


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
