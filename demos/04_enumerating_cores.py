"""Enumerating every (s,t)-core.

For coprime s and t the (s,t)-cores are the nonnegative integer t-tuples
with sum s satisfying one congruence, so listing them is listing lattice
points.  Each cyclic rotation class of a weak composition contains exactly
one valid tuple, which gives the count C(s+t, t)/(s+t).
"""

import json

from stcores import (
    brute_st_cores,
    canonical_cyclic_rep,
    count_sc,
    count_st,
    enum_sc_st_cores,
    enum_st_cores,
)

s, t = 3, 4
records = enum_st_cores(s, t)
print(f"all ({s},{t})-cores, in lexicographic order of z:")
for rec in records:
    print("  z =", rec.z.z, " a =", rec.a.a, " partition =", rec.partition.parts, " size =", rec.size)
print("count:", len(records), "= C(7,4)/7 =", count_st(s, t))

# The rotation trick: every orbit of compositions holds exactly one core.
x = (0, 2, 0)
r = canonical_cyclic_rep(x)
print("\ncomposition", x, "rotates by", r, "to", x[r:] + x[:r], "to satisfy the congruence")

# Self-conjugate cores come from an even simpler simplex of u-coordinates.
sc = enum_sc_st_cores(s, t)
print(f"\nself-conjugate ({s},{t})-cores:", [rec.partition.parts for rec in sc])
print("count:", len(sc), "= C(3,2) =", count_sc(s, t))

# And everything agrees with brute force over partitions with hook filters.
brute = set(brute_st_cores({s, t}, max(r.size for r in records)))
assert brute == {r.partition for r in records}
print("brute-force hook filtering finds the same", len(brute), "partitions")

# Records serialize to JSON lines for downstream tools.
print("\nJSON lines:")
for rec in records[:3]:
    print(json.dumps(rec.to_json_dict(), separators=(",", ":")))
