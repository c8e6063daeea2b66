"""Finite fields F_q = F_{p^e} of odd characteristic.

A ``Field`` is immutable once constructed.  An element's reduced
coordinates are a tuple of ``e`` residues in ``[0, p)``, ascending by
powers of the generator ``t``.  For ``e == 1`` the modulus is simply
``x`` and elements are residues mod ``p``.  For ``e > 1`` the modulus
defaults to the lexicographically smallest monic irreducible of degree
``e`` over F_p (coefficients compared low-degree-first), which makes
every construction reproducible.

Internally every element is one int, its code: the residue itself over
F_p, and sum c_i 2^(w i) over F_{p^e}, each coordinate c_i in its own
w-bit slot (Kronecker substitution applied to F_p[t]/(m)).  Adding or
multiplying codes as plain ints adds or convolves the coordinates
slot by slot, so polynomial kernels can accumulate sums of products
with int arithmetic and call ``Field._reduce`` once per result.
``Field.__init__`` binds ``_reduce``, ``_neg``, ``_pow`` and ``_inv``
once: to the int builtins over F_p, to the slot kernels over F_{p^e}.
There ``_reduce`` and ``_neg`` are closures, not methods (there is no
``_slot_reduce``), over p, the slot width w and its mask, the width and
mask of e slots and the fold rows, the codes of t^e, ..., t^(2e-2) mod
the modulus: a call reads no attribute.  ``_reduce`` folds slot e + i
back in as its residue times row i, then takes each slot mod p up to
the last nonzero one.  They and the other ``Field._*`` methods are the
only int kernels in the package.
The inverse over F_{p^e}, ``_slot_inv``, is the extended Euclidean
algorithm on the coordinates modulo the field's modulus, run with the
int builtins over F_p (von zur Gathen & Gerhard, Modern Computer
Algebra, 3.2 and 4.2): O(e^2) operations on residues and no
``_reduce``, where the power a^(q-2) would take about 2 log2(q)
reduced products.

The same substitution one level up packs a whole polynomial into one
int: ``_kron_pack`` joins its codes into byte-aligned slots of
``_kron_bytes(terms)`` bytes each, wide enough for a sum of ``terms``
products of two codes, so one bigint product of two packed polynomials
convolves their coefficients.  A fold, the function ``_folder(terms,
n)`` returns, is called only where slots hold such sums: it reduces every
slot of an int of at most n slots of ``_kron_bytes(terms)`` bytes to a
code in place, returning a packed int again.  ``_kron_unpack``, the one
reader, cuts an int whose slots hold codes, as ``_kron_pack`` and the
folds leave them, into those codes: one slot at a time if few, else all
at once.
A packed slot is 2e-1 tight sub-slots of B bytes, one per power t^k of
a product of codes, each wide enough for ``terms`` sums of e products
of two coordinates, with no headroom beyond that.  Codes are
byte-aligned (w is a multiple of 8), so coordinate j of a code sits at
byte j W, W = w / 8, and packing moves its R = ceil(bitlen(p) / 8)
residue bytes into sub-slot j by slice assignments, ``buf[j*B+i::slot]
= raw[j*W+i::stride]`` for i < R.  Unpacking joins the e coordinates of
the reduced slots into codes by shifts, c_0 | c_1 << w | ..., F_p
being the one-coordinate case.  No kernel reduces the slots one at a
time.

Over every F_{p^e}, every sub-slot of the int is reduced at once by
Barrett reduction (P. Barrett, CRYPTO '86; von zur Gathen & Gerhard,
ch. 9) as SIMD within a register (SWAR), the bigint being the register:
a fixed number of bigint operations, whatever the slot count.  Its
masks and constants depend only on the field and the shape (B and the
slot count), so ``_folder`` builds them into a fold, bound by its caller
once per operation.  With k = 8B bits a sub-slot and m = floor(2^k / p), a
sub-slot x < 2^k takes the quotient q = floor(x m / 2^k).  As p m >
2^k - p, x/p - x m / 2^k < x / 2^k < 1, so q falls short of floor(x/p)
by at most one and r = x - q p lies in [0, 2p).  The product x m needs
up to 2k bits, so the even and the odd sub-slots are reduced as two
halves, each masked out with k zero bits above every sub-slot for its
product to fill; the same mask picks the quotients out of
(half * m) >> k.  One correction then suffices: with g = bitlen(2p),
r + 2^g - p lies below 2^(g+1) and has bit g set just where r >= p, so
subtracting p times that bit leaves every residue in [0, p).  As
g + 1 <= k, the correction runs once on the rejoined halves.  Over
F_{p^e} the fold mod m is e-1 more products: sub-slot e+i of every slot,
masked and moved to sub-slot 0, times sum_j c_ij 2^(k j) adds c_ij times
it to each sub-slot j, c_ij being coordinate j of t^(e+i) mod m, and a
residue pass reduces the sums.  A slot that sums at most T products of
two codes holds at most T min(l+1, 2e-1-l) (p-1)^2 in sub-slot l, so
rows taken from these sub-slots as they are leave low sub-slot j at most
T (p-1)^2 ((j+1) + sum_i (e-1-i) c_ij).  The largest of those brackets,
``_fold_gain`` (3 for F_9, 13 for F_81), is derived once from the
modulus.  Where T times it times (p-1)^2 fits in k bits, the fold takes
the rows from v as it is and runs the one residue pass; elsewhere, as
``_kron_bytes`` sizes a sub-slot for T e (p-1)^2 only, it first takes
every sub-slot mod p, which leaves the sums below e (p-1)^2.  So the
rule never widens a slot; it skips a pass where the width has room.
Unpacking reads the residue bytes of each coordinate, up to 8 at a time,
as the machine words of an ``array``.

The canonical total order on elements — used for square-root tie
breaking, factor sorting, enumeration streams and random draws — is
lexicographic on the coordinate tuple; ``Field._index_code(i)``, the one
numbering of F_q, is its i-th code.  ``Field._tuples``, the one walk over
tuples of codes, builds each from its index, never a pool of q codes.

Square roots use Cipolla's method: take the first t in canonical order
with w = t^2 - a zero (t is a root) or a non-square.  In F_q[x]/(x^2 - w)
x^q = -x, so (x + t)^(q+1) = t^2 - w = a and the root is
(x + t)^((q+1)/2).  ``_ladder`` computes it on pairs of codes (u, v),
standing for u + v x, whose product is (u u' + v v' w, u v' + u' v):
about two trials and one ladder at any q, with no ``Poly`` built.
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array
from typing import Iterator, Sequence

from .errors import DomainError, FieldMismatchError, VerificationError, within_budget

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41: exact below
    3317044064679887385961981 (Sorenson & Webster 2015), else a strong probable-prime test."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _ladder(x, k: int, mul):
    # x^k for k >= 1 under the product mul(a, b), by left-to-right binary
    # powering (von zur Gathen & Gerhard, Modern Computer Algebra, 4.3):
    # never a product with 1.  The package's one powering loop.
    acc = x
    for bit in bin(k)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def _words(raw: bytes, start: int, stride: int, width: int) -> list[int]:
    # the little-endian ints of width <= 8 bytes at raw[start::stride], read
    # as the machine words of an array("Q")
    words = array("Q")
    item = words.itemsize
    buf = bytearray(len(raw) // stride * item)
    for i in range(width):
        buf[i::item] = raw[start + i::stride]
    words.frombytes(buf)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


@functools.cache
def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    # lexicographically first (c0, ..., c_{e-1}) making x^e + ... + c0 irreducible
    # over F_p, in the order of Field._tuples from c0 == 1 on, as c0 == 0 is reducible.
    # Cached per (p, e): the command line builds its field afresh on every request.
    from .factor import is_irreducible
    from .poly import Poly

    base = Field(p)
    for tail in base._tuples(e, p ** (e - 1)):
        if is_irreducible(Poly(base, tail + (1,))):
            return tail + (1,)
    raise VerificationError(  # pragma: no cover - irreducibles always exist
        f"no irreducible of degree {e} over F_{p}")


class FieldElement:
    """An element of F_{p^e}, held as its field's int code.

    Instances are produced by ``Field.element`` and by arithmetic; the
    constructor trusts its arguments.  Supports ``+ - * / **`` and ``-x``,
    with ints coerced through the prime subfield.  ``bool(x)`` is True for
    nonzero x.  ``coords`` gives the reduced coordinate tuple.
    """

    __slots__ = ("field", "code")

    def __init__(self, field: "Field", code: int):
        self.field = field
        self.code = code

    @property
    def coords(self) -> tuple[int, ...]:
        return self.field._unpack(self.code)

    def _coerce(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.field.element(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        return FieldElement(f, f._reduce(self.code + other.code))

    __radd__ = __add__

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

    def __neg__(self):
        f = self.field
        return FieldElement(f, f._neg(self.code))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        return FieldElement(f, f._reduce(self.code * other.code))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        return FieldElement(f, f._inv(self.code))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        f = self.field
        return FieldElement(f, f._pow(self.code, k))

    def is_square(self) -> bool:
        """Whether the element has a square root in its own field.

        Euler's criterion: a nonzero a is a square iff a**((q-1)/2) == 1.
        Undefined for zero.
        """
        if not self:
            raise DomainError("quadratic character of zero is undefined")
        f = self.field
        return f._pow(self.code, (f.q - 1) // 2) == 1

    def sqrt(self) -> "FieldElement | None":
        """Canonical square root, or None for a nonzero non-square.

        sqrt(0) == 0.  Of the two roots of a nonzero square the one with
        the lexicographically smaller coordinate tuple is returned.  By
        Cipolla's method, at any q (see the module docstring).
        """
        f = self.field
        if not self:
            return f.zero
        if not self.is_square():
            return None
        reduce, neg_a, half = f._reduce, f._neg(self.code), (f.q - 1) // 2
        for t in f._codes():
            w = reduce(t * t + neg_a)
            if not w or f._pow(w, half) != 1:
                break
        if w:
            # u + v x times u' + v' x; reduce(v v') keeps the t-degree <= 2e-2
            def mul(a, b):
                (u, v), (u2, v2) = a, b
                return reduce(u * u2 + reduce(v * v2) * w), reduce(u * v2 + u2 * v)

            t = _ladder((t, 1), (f.q + 1) // 2, mul)[0]
        return FieldElement(f, min(t, f._neg(t), key=f._unpack))

    def frobenius(self, k: int) -> "FieldElement":
        """The k-fold Frobenius image x**(p**k); the identity when e | k."""
        if k < 0:
            raise DomainError("Frobenius exponent must be nonnegative")
        f = self.field
        return self ** (f.p ** (k % f.e))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (other.field is self.field or other.field == self.field) \
                and self.code == other.code
        if isinstance(other, int):
            return self.code == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.code))

    def __bool__(self):
        return self.code != 0

    def __str__(self):
        return self.field.format_element(self)

    def __repr__(self):
        return f"{self.field.spec_string()}:{self}"


class Field:
    """The finite field with p**e elements, p an odd prime."""

    __slots__ = ("p", "e", "q", "modulus", "zero", "one", "_reduce", "_neg", "_pow", "_inv",
                 "_index_code", "_slot_bits", "_slot_mask", "_reduction_codes", "_fold_gain")

    def __init__(self, p: int, e: int = 1, modulus: Sequence[int] | None = None):
        if not isinstance(p, int) or not is_prime(p):
            raise DomainError(f"field characteristic must be prime, got {p}")
        if p == 2:
            raise DomainError("even characteristic is not supported")
        if not isinstance(e, int) or e < 1:
            raise DomainError(f"extension degree must be >= 1, got {e}")
        # the modulus search tries about e candidates of degree e, each a
        # Ben-Or test of up to e/2 Frobenius steps of bit_length(p)
        # squarings, a given modulus one; refuse before building q or running it
        what = (f"the degree-{e} modulus search" if modulus is None
                else f"the irreducibility check of the degree-{e} modulus")
        within_budget(e * e * p.bit_length(), f"{what} over F_{p}")
        self.p = p
        self.e = e
        self.q = p ** e
        # A slot has room for the sum of 2^32 products of two codes, each
        # adding at most e (p-1)^2 to it.  No accumulator comes near that
        # many terms (a polynomial that long does not fit in memory), so
        # slots never carry into each other.  Whole bytes, so that the
        # Kronecker kernels find coordinate j at byte j w / 8.
        self._slot_bits = -(-(2 ** 32 * e * (p - 1) ** 2).bit_length() // 8) * 8
        self._slot_mask = (1 << self._slot_bits) - 1
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        # _reduce, _neg, _pow, _inv: the int builtins over F_p, the slot kernels over
        # F_{p^e}; _index_code: i < q to the i-th code in the canonical order, c0 its top digit
        if e == 1:
            if modulus is not None and tuple(c % p for c in modulus) != (0, 1):
                raise DomainError("prime fields use the fixed modulus x")
            self.modulus = (0, 1)
            # closures: partial(pow, mod=p) takes ~300 ns more a call (Python 3.11)
            self._reduce = p.__rmod__
            self._neg = lambda code: -code % p
            self._pow = lambda code, k: pow(code, k, p)
            self._inv = lambda code: pow(code, -1, p)
            self._index_code = operator.index
            self._reduction_codes = ()
            self._fold_gain = 1
            return
        self.modulus = (_smallest_irreducible(p, e) if modulus is None
                        else self._checked_modulus(modulus))
        w, mask = self._slot_bits, self._slot_mask
        low_bits = w * e
        low_mask = (1 << low_bits) - 1
        # the codes of t^e, ..., t^(2e-2) mod modulus, each t times the one before
        rows = [self._pack([-c % p for c in self.modulus[:e]])]

        def reduce(v):
            # the code of a packed accumulator (nonnegative slots, t-degree at
            # most 2e-2), e.g. a sum of products of codes: slot e + i folds back
            # in as its residue times t^(e+i) mod m, then each slot mod p, up to
            # the last nonzero one, as many codes lie in a small subfield; a
            # loop, as a comprehension costs about 1.5x here (Python 3.11)
            if v > low_mask:
                high = v >> low_bits
                v &= low_mask
                for row in rows:
                    v += (high & mask) % p * row
                    high >>= w
            code = shift = 0
            while v:
                code |= (v & mask) % p << shift
                v >>= w
                shift += w
            return code

        for _ in range(e - 2):
            rows.append(reduce(rows[-1] << w))
        self._reduction_codes = rows = tuple(rows)
        # g: a fold that takes its rows from unreduced sub-slots leaves low
        # sub-slot j at most (j + 1 + sum_i (e-1-i) c_ij) (p-1)^2 a term, c_ij
        # coordinate j of t^(e+i) mod m (see _folder)
        coords = [self._unpack(row) for row in rows]
        self._fold_gain = max(j + 1 + sum([(e - 1 - i) * c[j] for i, c in enumerate(coords)])
                              for j in range(e))
        # -x = (p - 1) x, and scaling a code scales every slot
        self._neg = lambda code: reduce(code * (p - 1))
        self._reduce, self._pow, self._inv = reduce, self._slot_pow, self._slot_inv
        steps = [(p ** (e - 1 - k), w * k) for k in range(e)]
        self._index_code = lambda i: sum([i // pk % p << shift for pk, shift in steps])

    # -- construction helpers ------------------------------------------------

    def _checked_modulus(self, modulus: Sequence[int]) -> tuple[int, ...]:
        from .factor import is_irreducible
        from .poly import Poly

        coeffs = tuple(int(c) % self.p for c in modulus)
        if len(coeffs) != self.e + 1 or coeffs[-1] != 1:
            raise DomainError(f"modulus must be monic of degree {self.e}")
        if not is_irreducible(Poly(Field(self.p), coeffs)):
            raise DomainError("modulus is not irreducible over the prime field")
        return coeffs

    # -- int kernels on codes ---------------------------------------------------

    def _pack(self, coords: Sequence[int]) -> int:
        # reduced coordinates -> code
        code = 0
        for c in reversed(coords):
            code = (code << self._slot_bits) | c
        return code

    def _unpack(self, code: int) -> tuple[int, ...]:
        w, mask = self._slot_bits, self._slot_mask
        out = []
        for _ in range(self.e):
            out.append(code & mask)
            code >>= w
        return tuple(out)

    def _slot_pow(self, code: int, k: int) -> int:
        reduce = self._reduce
        return _ladder(code, k, lambda a, b: reduce(a * b)) if k else 1

    def _slot_inv(self, code: int) -> int:
        # monic divisors make 1 the common case
        if code == 1:
            return code
        # the extended Euclid on coordinates over F_p: s0 a = r0 and
        # s1 a = r1 mod m throughout, until r1 is a constant
        p, e = self.p, self.e
        r0, r1 = list(self.modulus), list(self._unpack(code))
        s0, s1 = [0] * e, [1] + [0] * (e - 1)
        while True:
            while not r1[-1]:
                r1.pop()
            d = len(r1) - 1
            if not d:
                c = pow(r1[0], -1, p)
                return self._pack([v * c % p for v in s1])
            # r0 mod r1 in place, and s0 - quotient s1 alongside; the s
            # stay below degree e, so c x^k s1 has no term past t^(e-1)
            inv = pow(r1[-1], -1, p)
            for k in range(len(r0) - 1 - d, -1, -1):
                c = r0[k + d] * inv % p
                if c:
                    for j in range(d):
                        r0[k + j] -= c * r1[j]
                    for j in range(e - k):
                        s0[k + j] -= c * s1[j]
            r0, r1 = r1, [v % p for v in r0[:d]]
            s0, s1 = s1, [v % p for v in s0]

    def _kron_bytes(self, terms: int) -> int:
        """Bytes per slot of a packed polynomial (see ``_kron_pack``) with
        room for the sum of ``terms`` products of two codes.

        Such a sum is a packed accumulator of t-degree at most 2e-2 (see
        ``_reduce``), held in 2e-1 sub-slots of equal width, each with room
        for ``terms`` sums of e coordinate products."""
        p, e = self.p, self.e
        return (2 * e - 1) * (((terms * e * (p - 1) ** 2).bit_length() + 7) // 8)

    def _kron_pack(self, codes: Sequence[int], nbytes: int) -> int:
        """One int holding ``codes`` in ``nbytes``-byte slots, lowest
        first: the value at 2^(8 nbytes) of the polynomial they are the
        coefficients of.  Multiplying two such ints convolves the slots."""
        e, width = self.e, self._slot_bits // 8
        size = (self.p.bit_length() + 7) // 8  # bytes of a residue
        if e > 1 or size > 8:
            stride = e * width
            raw = b"".join([c.to_bytes(stride, "little") for c in codes])
        else:
            words = array("Q", codes)
            if sys.byteorder == "big":
                words.byteswap()
            raw, stride = words.tobytes(), words.itemsize
        # byte i of coordinate j, at byte j W + i of a code, to sub-slot j
        sub = nbytes // (2 * e - 1)
        buf = bytearray(len(codes) * nbytes)
        for j in range(e):
            for i in range(size):
                buf[j * sub + i::nbytes] = raw[j * width + i::stride]
        return int.from_bytes(buf, "little")

    def _kron_unpack(self, v: int, nbytes: int, n: int) -> list[int]:
        """The codes of the ``n`` slots of ``v`` (which must fit in them),
        each slot already a code, as ``_kron_pack`` and the folds leave it."""
        e, w = self.e, self._slot_bits
        sub = nbytes // (2 * e - 1)
        # the loop shifts all of v per slot; the bulk read costs 3-5x as much at 2 slots,
        # about as much at 8 over F_3 and F_257 and 12 over F_9 and F_125 (slots for gcds
        # of 100 and 400 terms, best of 9 x 2000 calls; loop/bulk at 12 slots, 100 terms:
        # F_3 4.3/2.5, F_257 3.9/2.7, F_9 5.3/5.5, F_125 7.3/8.6 us)
        if n < 12:
            bits, k = 8 * nbytes, 8 * sub
            mask = (1 << k) - 1
            codes = []
            for _ in range(n):
                code = 0
                for j in range(e):
                    code |= (v >> k * j & mask) << w * j
                codes.append(code)
                v >>= bits
            return codes
        # the residue bytes of each coordinate, up to 8 at a time
        raw = v.to_bytes(n * nbytes, "little")
        size = (self.p.bit_length() + 7) // 8
        parts = [(_words(raw, j * sub + i, nbytes, min(8, size - i)), j * w + 8 * i)
                 for j in range(e) for i in range(0, size, 8)]
        # each part joins each code at its bit
        codes = list(parts[0][0])
        for part, shift in parts[1:]:
            codes = [c | d << shift for c, d in zip(codes, part)]
        return codes

    def _folder(self, terms: int, n: int):
        """The fold of packed ints of at most ``n`` slots of ``_kron_bytes(terms)``
        bytes, each slot a sum of at most ``terms`` products of two codes:
        every slot to a code in place, ``_kron_pack`` of each slot's
        ``_reduce``, its t^k part taken at bit w k.  A zero slot stays zero.

        Over F_{p^e} it takes the modulus rows from the unreduced sub-slots,
        with one residue pass after them, where a sub-slot has room for
        terms g (p-1)^2 (g is ``_fold_gain``), and else reduces every
        sub-slot mod p before the rows too."""
        p, e = self.p, self.e
        span = 2 * e - 1
        sub = self._kron_bytes(terms) // span
        k, g, m = 8 * sub, (2 * p).bit_length(), (1 << 8 * sub) // p
        full, zero = b"\xff" * sub, bytes(sub)
        # every other sub-slot, and the low byte of every sub-slot
        evens = int.from_bytes((full + zero) * ((n * span + 1) // 2), "little")
        ones = int.from_bytes((b"\x01" + zero[1:]) * (n * span), "little")
        lift = ones * ((1 << g) - p)

        def residues(v):
            # every sub-slot mod p at once (see the module docstring)
            even, odd = v & evens, v >> k & evens
            r = even - (even * m >> k & evens) * p | (odd - (odd * m >> k & evens) * p) << k
            # r < 2p in every sub-slot; bit g of r + 2^g - p is set where r >= p
            return r - ((r + lift) >> g & ones) * p

        if e == 1:
            return residues
        # coordinate j of a slot gains c_ij times its sub-slot e + i, c_ij
        # coordinate j of t^(e+i) mod m: one product per i, as sub-slot e + i
        # of every slot, moved to sub-slot 0, times sum c_ij 2^(k j)
        low = int.from_bytes((full * e + zero * (e - 1)) * n, "little")
        first = int.from_bytes((full + zero * (span - 1)) * n, "little")
        rows = [(k * (e + i), sum(c << k * j for j, c in enumerate(self._unpack(code))))
                for i, code in enumerate(self._reduction_codes)]
        twice = (terms * self._fold_gain * (p - 1) ** 2).bit_length() > k

        def fold(v):
            if twice:
                v = residues(v)
            acc = v & low
            for shift, row in rows:
                acc += (v >> shift & first) * row
            return residues(acc)

        return fold

    def _codes(self) -> Iterator[int]:
        """All q codes in the canonical order, one at a time, by ``_index_code``."""
        return map(self._index_code, range(self.q))

    def _tuples(self, k: int, start: int = 0) -> Iterator[tuple[int, ...]]:
        """The k-tuples of codes in the canonical order, first entry most significant,
        from the ``start``-th on: tuple i is i's k base-q digits, each by ``_index_code``."""
        q, code = self.q, self._index_code
        places = [q ** j for j in reversed(range(k))]
        return (tuple([code(i // place % q) for place in places]) for i in range(start, q ** k))

    # -- public surface -------------------------------------------------------

    def element(self, value) -> FieldElement:
        """Coerce an int, coordinate sequence, element or text form."""
        if isinstance(value, FieldElement):
            if value.field is self:
                return value
            if value.field == self:
                return FieldElement(self, value.code)
            raise FieldMismatchError(f"element of {value.field} is not in {self}")
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        if isinstance(value, str):
            return self.parse(value)
        coords = [int(c) % self.p for c in value]
        if len(coords) != self.e:
            raise DomainError(
                f"expected {self.e} coordinates for {self}, got {len(coords)}")
        return FieldElement(self, self._pack(coords))

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in the canonical (coordinate-lexicographic) order."""
        return (FieldElement(self, code) for code in self._codes())

    def units(self) -> Iterator[FieldElement]:
        """All nonzero elements, canonical order."""
        return (x for x in self.elements() if x)

    # -- text formats ----------------------------------------------------------

    def format_element(self, x: FieldElement) -> str:
        if self.e == 1:
            return str(x.code)
        terms = []
        for k, c in enumerate(x.coords):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
        return "+".join(terms) if terms else "0"

    def parse(self, text: str) -> FieldElement:
        """Inverse of ``format_element``; also accepts plain integers."""
        s = text.replace(" ", "")
        if not s:
            raise DomainError("empty element string")
        try:
            return self.element(int(s))
        except ValueError:
            pass
        coords = [0] * self.e
        for term in s.split("+"):
            if not term:
                raise DomainError(f"malformed element string {text!r}")
            if "t" not in term:
                try:
                    coords[0] += int(term)
                except ValueError:
                    raise DomainError(f"malformed element string {text!r}") from None
                continue
            left, _, right = term.partition("t")
            try:
                c = 1 if left == "" else int(left[:-1]) if left.endswith("*") else int(left)
                k = 1 if right == "" else int(right[1:]) if right.startswith("^") else None
            except ValueError:
                raise DomainError(f"malformed element string {text!r}") from None
            if k is None or not 0 <= k:
                raise DomainError(f"malformed element string {text!r}")
            if k >= self.e:
                raise DomainError(
                    f"term {term!r} exceeds the coordinate range of {self}")
            coords[k] += c
        return self.element(coords)

    def spec_string(self) -> str:
        return str(self.p) if self.e == 1 else f"{self.p}^{self.e}"

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Field):
            return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"Field({self.p})"
        return f"Field({self.p}, {self.e})"

    def __str__(self):
        return f"F_{self.q}"


def parse_field_spec(spec: str, modulus: Sequence[int] | None = None) -> Field:
    """Build a field from a spec string, "p" or "p^e" (e.g. "5", "3^2"), and any modulus."""
    try:
        p_e = [int(text) for text in spec.strip().split("^", 1)]
    except ValueError:
        raise DomainError(f"unknown field spec {spec!r}") from None
    # Field's own refusals (even p, e < 1, a composite p) keep their reasons
    return Field(*p_e, modulus=modulus)