"""Follow Engel sequences and classify Engel elements.

The Engel sequence of (a, x) iterates y -> [y, x] starting at a.  The
relation "some iterate hits the identity" is famously asymmetric, and the
elements x for which EVERY a works form the Fitting subgroup.

Run from the repository root:  python demos/02_engel_classification.py
"""

from engelgraph import (
    Permutation,
    dihedral_group,
    engel_reaches_identity,
    fitting_subgroup,
    is_left_engel,
    iterated_commutator,
    left_engel_set,
    symmetric_group,
)

s3 = symmetric_group(3)
t = s3.index(Permutation.from_cycles([(1, 2)]))
c = s3.index(Permutation.from_cycles([(1, 2, 3)]))

print("the Engel sequence of ((1,2), (1,2,3)):")
for k in range(4):
    print(f"  [a,_{k} x] = {s3.perm(iterated_commutator(s3, t, c, k))}")
print("forward:", engel_reaches_identity(s3, t, c))
print("backward:", engel_reaches_identity(s3, c, t))
print("so (1,2) ~ (1,2,3) but (1,2,3) !~ (1,2): the relation is asymmetric")
print()

for x in range(s3.order):
    print(f"{str(s3.perm(x)):10s} left Engel in S3: {is_left_engel(s3, x)}")
print()

d12 = dihedral_group(12)
L = left_engel_set(d12)
print(f"L(D12) = {{{', '.join(str(d12.perm(x)) for x in L)}}}")
print(f"|L(D12)| = {len(L)} (the rotations)")

# fitting_subgroup returns the same set after asserting it is a subgroup,
# normal, and nilpotent (a failure would be a bug, not a property of D12)
print("verified Fitting subgroup order:", len(fitting_subgroup(d12)))
