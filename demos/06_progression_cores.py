"""Cores avoiding three hook lengths in arithmetic progression.

For coprime m and d, the (m, m+d, m+2d)-cores are finite in number:

    count = (1/(m+d)) * sum_i multinom(m+d; i, i+d, m-2i)

Two different parameterizations prove it, and the library implements both:
the "symmetric" one views them as (m+d)-cores whose extended z-coordinates
lie in {-1, 0, 1}, the "asymmetric" one as (m+d, m)-cores whose z-tuples
have no two cyclically adjacent zeros.  For d = 1 the count is a Motzkin
number.
"""

from stcores import (
    count_triple,
    iter_triple_asym,
    iter_triple_sym,
    motzkin_number,
)

m, d = 3, 2
sym = list(iter_triple_sym(m, d))
asym = list(iter_triple_asym(m, d))
print(f"({m},{m+d},{m+2*d})-cores, symmetric parameterization (z in {{-1,0,1}}^{m+d}):")
for rec in sym:
    print("  z =", rec.z.z, " partition =", rec.partition.parts, " size =", rec.size)
print(f"\nasymmetric parameterization (compositions of {m+d} into {m} parts):")
for rec in asym:
    print("  z =", rec.z.z, " partition =", rec.partition.parts, " size =", rec.size)

assert {r.partition for r in sym} == {r.partition for r in asym}
print("\nsame partitions either way; count =", count_triple(m, d))

# Independent sanity: none of them has a hook divisible by m, m+d, or m+2d.
for rec in sym:
    hooks = rec.partition.hook_lengths()
    assert all(h % mod for mod in (m, m + d, m + 2 * d) for h in hooks)
print("hook check passed for all", len(sym), "cores")

# The d = 1 column of the counting formula is the Motzkin sequence.
print("\n m   count(m, m+1, m+2)   Motzkin M_m")
for mm in range(1, 11):
    c = count_triple(mm, 1)
    assert c == motzkin_number(mm)
    print(f"{mm:>2}   {c:>18}   {motzkin_number(mm):>11}")
