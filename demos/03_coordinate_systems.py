"""Four coordinate systems for one core.

A t-core is pinned down by any of: its charge tuple, its a-coordinates
(the t-set), its z-coordinates (given a parameter s coprime to t), or,
when self-conjugate, the folded u-coordinates.  This script converts a
single small example through every view and back.
"""

from stcores import (
    Partition,
    a_coords,
    a_to_z,
    beta_from_partition,
    charge,
    is_self_conjugate_a,
    is_st_core_a,
    partition_from_a,
    size_from_a,
    size_from_c,
    u_to_z,
    z_to_a,
    z_to_u,
)

lam = Partition([1])
t, s = 3, 2
print("lambda =", lam.parts, " (t, s) =", (t, s))

# a-coordinates: one representative per residue class mod t, summing to t(t-1)/2.
a = a_coords(lam, t)
print("a =", a.a, " sum =", sum(a.a))

# charge is the same data with a different normalization: a_i = i - t*c_{-1-i}.
c = charge(beta_from_partition(lam), t)
print("charge =", c)

# z-coordinates re-index the a-differences; nonnegative entries <=> (s,t)-core.
z = a_to_z(a, s)
print("z =", z.z, " all nonnegative?", z.is_nonnegative())
print("is an (s,t)-core by the a-inequalities?", is_st_core_a(a, s))

# (1) is self-conjugate, so z is symmetric and folds into u-coordinates.
print("self-conjugate?", is_self_conjugate_a(a))
u = z_to_u(z)
print("u =", u.u)

# Every arrow inverts exactly.
assert z_to_a(z) == a
assert u_to_z(u) == z
assert partition_from_a(a) == lam
print("round trips: a->z->a, z->u->z, a->partition all exact")

# Both size formulas reproduce |lambda| without building the diagram.
print("size via a-coordinates:", size_from_a(a))
print("size via charge:", size_from_c(c))

# The same machinery on a bigger example: take the 7-core of something.
from stcores import t_core

big = t_core(Partition([9, 7, 5, 2, 2, 1]), 7)
a7 = a_coords(big, 7)
print("\n7-core of (9,7,5,2,2,1):", big.parts)
print("a at t=7:", a7.a)
print("z at s=4:", a_to_z(a7, 4).z)
print("size check:", size_from_a(a7), "=", big.size)
