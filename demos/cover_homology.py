"""
Cyclic branched covers: lifts, homology matrices, and the Burau cross-check.

A braid on n strands lifts to the k-fold cyclic cover of the disk branched
at n points; the generator σ_i becomes the twist chain t_{i,1}...t_{i,k-1},
held as the signed indices of those curves in the H_1 basis.
On first homology every twist acts by an integral transvection, the deck
transformation acts by companion blocks, lifted braids commute with the
deck action, chain-relation words act trivially, and the whole
representation is an explicit base change away from reduced Burau evaluated
at the companion matrix of 1 + t + ... + t^{k-1}.  Matrices are lists of
integer rows, compared with ==.
"""

from braidforge import (
    base_change,
    burau_at_companion,
    burau_reduced,
    check_identity,
    cover_data,
    deck_matrix,
    format_twist_word,
    homology_rep,
    intersection_form,
    lift_word,
    parse_word,
    symmetry_check,
    word,
)


def mul(A, B):
    """The product of two integer matrices given as lists of rows."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


print("== cover invariants ==")
for n, k in [(2, 2), (3, 2), (3, 3), (5, 4)]:
    data = cover_data(n, k)
    print(
        f"  (n,k)=({n},{k}): χ={data.euler_char}, boundary={data.boundary_components},"
        f" genus={data.genus}, rank H1={data.h1_rank}"
    )

print()
print("== lifting braid words ==")
for text, n, k in [("1", 3, 3), ("-1", 3, 3), ("1 2", 3, 2)]:
    print(f"  σ-word '{text}' lifts to: {format_twist_word(lift_word(parse_word(text, n), k))}")

print()
print("== the homology representation at (3,2): genus one ==")
J = intersection_form(3, 2)
print("intersection form:")
print(J)
for i in (1, 2):
    H = homology_rep(lift_word(word(3, [i]), 2))
    print(f"lift of σ{i} acts by:")
    print(H)

print()
print("== chain relations act trivially on H1 ==")
h1 = homology_rep(lift_word(parse_word("(1 2)^6", 3), 2))
h2 = homology_rep(lift_word(parse_word("(1 2 3)^4", 4), 2))
print("(σ1σ2)^6 at (3,2):", "identity" if h1 == [[1, 0], [0, 1]] else h1)
print("(σ1σ2σ3)^4 at (4,2):", "identity" if h2 == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] else h2)

print()
print("== deck symmetry ==")
D = deck_matrix(3, 3)
print("deck matrix at (3,3):")
print(D)
lifted = lift_word(parse_word("1 -2 1 2", 3), 3)
print("a lifted braid commutes with it:", symmetry_check(lifted))
from braidforge import TwistWord

# a twist-word letter is the signed index of its basis curve: t_{1,1} is 1
print("a bare single twist does not:", symmetry_check(TwistWord(3, 3, (1,))))

print()
print("== homology-level identity checking (necessary, not sufficient) ==")
a = lift_word(parse_word("1 2 1", 3), 3)
b = lift_word(parse_word("2 1 2", 3), 3)
print("lifts of the braid relation sides agree on H1:", check_identity(a, b))

print()
print("== the Burau cross-oracle ==")
b = parse_word("1 -2 2 1 -1 2", 3)
# reduced Burau is a dict from each exponent of t to its coefficient matrix
print("reduced Burau of σ1 in B_3:", burau_reduced(word(3, [1])))
V = base_change(3, 2)
H = homology_rep(lift_word(b, 2))
print("H·V == V·B, B = Burau at the companion matrix:", mul(H, V) == mul(V, burau_at_companion(b, 2)))
