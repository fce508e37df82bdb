"""Exact average sizes of (s,t)-cores.

Four families of averages admit closed forms, all with denominator 24:

  unweighted, all cores:            (s-1)(t-1)(s+t+1)/24
  unweighted, self-conjugate:       (s-1)(t-1)(s+t+1)/24   (the same!)
  1/stabilizer-weighted, all:       (s-1)(t^2-1)/24
  1/stabilizer-weighted, sc:        (s-1)(t^2-1)/24 for odd t,
                                    (s-1)(t^2+2)/24 for even t

The weighted average is the expected size of the t-core of a random
s-core; the stabilizer of a core is the product of the factorials of its
z-coordinates (with powers of 2 in the self-conjugate case).  Everything
below is exact and compared for equality: the (2,3) listing by
enumeration, the averages and moments by a dynamic program over the
prefix sums of z that visits no core.
"""

import math
from fractions import Fraction

from stcores import (
    attach_stabilizers,
    average_size,
    enum_st_cores,
    expected_average,
    moment_sum,
)

# The smallest interesting case, in full detail.
print("(2,3)-cores with stabilizers:")
for rec in attach_stabilizers(enum_st_cores(2, 3)):
    print("  z =", rec.z.z, " partition =", rec.partition.parts,
          " size =", rec.size, " stab =", rec.stab)
print("unweighted average:", average_size(2, 3))
print("weighted average:  ", average_size(2, 3, weighted=True),
      "= (0*1 + 1*(1/2)) / (1 + 1/2)")

# A sweep over coprime pairs: the DP vs the closed form, exactly.
print("\n  s  t   unweighted      weighted        weighted-sc")
for s in range(1, 8):
    for t in range(1, 8):
        if math.gcd(s, t) != 1:
            continue
        row = []
        for weighted, sc in [(False, False), (True, False), (True, True)]:
            got = average_size(s, t, weighted, sc)
            assert got == expected_average(s, t, weighted, sc)
            row.append(str(got).rjust(8))
        print(f"  {s}  {t} " + "   ".join(row) + "   (all equal the closed forms)")

# The weighted average is not symmetric in s and t, unlike the unweighted one.
print("\nweighted (2,3):", average_size(2, 3, weighted=True),
      " weighted (3,2):", average_size(3, 2, weighted=True))

# Higher power sums have no closed form here; the library just computes them.
print("\nmoment sums at (4,5): sum |core|^e for e = 0..4:")
print([str(moment_sum(4, 5, e)) for e in range(5)])
print("second moment about the mean:",
      moment_sum(4, 5, 2) / moment_sum(4, 5, 0)
      - (moment_sum(4, 5, 1) / moment_sum(4, 5, 0)) ** 2)
assert average_size(4, 5) == Fraction(3 * 4 * 10, 24)
