"""Fields and polynomials: the arithmetic layer.

Build prime and extension fields, poke at quadratic residues and square
roots, and round-trip polynomials through the text formats the command
line uses.
"""

from gfrecip import Field, Poly, discriminant, gcd, resultant

# Prime fields are just residues mod p.
F5 = Field(5)
print("F_5:", [str(x) for x in F5.elements()])
print("3^-1 =", F5.element(3).inverse(), "   4^3 =", F5.element(4) ** 3)

# Extension fields pick the lexicographically smallest irreducible
# modulus, so constructions are reproducible everywhere.
F9 = Field(3, 2)
print("\nF_9 modulus coefficients (ascending):", F9.modulus)
t = F9.element([0, 1])
print("t * t =", t * t, "   (t + 1)^3 =", (t + 1) ** 3)

# Quadratic residues via Euler's criterion, square roots by Cipolla's method
# with a deterministic tie-break: the lexicographically smaller of the pair.
print("\nsquares in F_5:", [str(a) for a in F5.units() if a.is_square()])
print("sqrt(4) =", F5.element(4).sqrt(), "   sqrt(2) =", F5.element(2).sqrt())
print("squares in F_9:", [str(a) for a in F9.units() if a.is_square()])

# Polynomials print two ways: a comma form that round-trips bit-exactly,
# and a human form.
f = Poly.from_string(F5, "4,1,2,4,3,1,1")
print("\nf =", f.pretty())
print("coefficient form:", f.to_string())
print("f(2) =", f(2), "   f(0) =", f(0))

# The usual ring toolbox.
g = Poly(F5, [-4, 0, 1])  # x^2 - 4
quotient, remainder = divmod(f, g)
print("\nf = (x^2-4) * (", quotient.pretty(), ") +", remainder.pretty())
print("gcd(x^2-1, x-1) =", gcd(Poly(F5, [-1, 0, 1]), Poly(F5, [-1, 1])).pretty())
print("R(x-1, x+1) =", resultant(Poly(F5, [-1, 1]), Poly(F5, [1, 1])))
print("D(x^2+x+1) =", discriminant(Poly(F5, [1, 1, 1])))
