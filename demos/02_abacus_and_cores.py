"""Beta-sets and the abacus view of hook removal.

The beta-set B = {part_i - i} turns rim hooks into bead moves: a rim
s-hook is a bead x in B with x - s unoccupied, and removing the hook
slides the bead down by s.  Sliding every bead as far as it goes (the
s-push) computes the s-core in one sweep and preserves the charge tuple.
"""

from stcores import (
    Partition,
    beta_from_partition,
    charge,
    hook_count,
    is_s_core,
    partition_from_beta,
    s_push,
    t_core,
)

lam = Partition([3, 2, 2])
b = beta_from_partition(lam)
print("lambda =", lam.parts)
print("beta-set encoding:", b)
print("round trip:", partition_from_beta(b).parts)

# hook_count(b, s) counts beads that can move: the rim s-hooks.
for s in range(1, 6):
    print(f"rim {s}-hooks of (3,2,2):", hook_count(b, s))

# Closure criterion: an s-core is a beta-set closed under subtracting s.
five_five = beta_from_partition(Partition([5, 5]))
print("\n(5,5) is a 4-core?", is_s_core(five_five, 4))
print("(1,1) is a 4-core?", is_s_core(beta_from_partition(Partition([1, 1])), 4))

# The 4-push of (5,5) lands exactly on the beta-set of (1,1) ...
pushed = s_push(five_five, 4)
print("\n4-push of beta(5,5):", pushed)
print("which is beta of:", partition_from_beta(pushed).parts)

# ... and the charge 4-tuple is untouched by the push.
print("charge of (5,5) at s=4:", charge(five_five, 4))
print("charge of (1,1) at s=4:", charge(pushed, 4))

# t_core wraps the whole pipeline and always agrees with the diagram path.
for t in range(2, 7):
    via_abacus = t_core(Partition([6, 4, 4, 1]), t)
    via_diagram = Partition([6, 4, 4, 1]).t_core_by_diagram(t)
    assert via_abacus == via_diagram
    print(f"{t}-core of (6,4,4,1):", via_abacus.parts)
