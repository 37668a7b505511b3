"""Nested-commutator combinatorics and the anti-commutation graph.

The higher-order bounds rest on counting lemmas for G_w(H): the sum of
squared counts of non-vanishing nested-commutator chains.  At small sizes
these counts can be enumerated literally — each chain survives iff every
next term anticommutes with the accumulated Pauli product — and compared
against the analytical caps.  The same anticommutation structure defines a
graph whose greedy coloring stays below Q(n,k) + 1.

Run:  python demos/05_chain_oracles_and_coloring.py
"""

from syklab.bounds import q_of
from syklab.chains import (
    avg_gw_exact,
    build_graph,
    greedy_coloring,
    gw_bruteforce,
    indicator,
    lemma_d_bound,
    lemma_e_bound,
    q_max,
    syk_termset,
)

# a 4-term SYK termset at n = 6, k = 3
terms = syk_termset(6, 3, [(1, 2, 3), (1, 2, 4), (3, 4, 5), (1, 5, 6)])
qm = q_max(terms)
print(f"termset: m={terms.m}, Q_max={qm}")

# indicator: chain (0, 1) survives iff terms 0 and 1 anticommute
print("ind(0,1) =", indicator([0, 1], terms),
      " ind(0,0) =", indicator([0, 0], terms), "(a term commutes with itself)")

print("\nexact G_w vs the counting cap g^(3g-2) m^2 Q_max^(g-2):")
for g in (2, 3, 4):
    for w in range(g % 2, g + 1, 2):
        gw = gw_bruteforce(terms, g, w)
        cap = lemma_d_bound(g, terms.m, qm)
        print(f"  g={g} w={w}: G_w = {gw:>6}  <=  {cap:.3g}")

print("\nBernoulli-averaged <G_w> (g=3, w=1) vs its cap:")
for p_b in (0.1, 0.5, 0.9, 1.0):
    avg = avg_gw_exact(terms, 3, 1, p_b)
    cap = lemma_e_bound(3, 1, terms.m, qm, p_b)
    print(f"  p_B={p_b:>4}: <G_w> = {avg:>10.4f}  <=  {cap:.4g}")
print("p_B = 1 recovers the unaveraged count:",
      avg_gw_exact(terms, 3, 1, 1.0) == gw_bruteforce(terms, 3, 1))

# greedy coloring of the full anti-commutation graph
print("\ngreedy coloring of the full SYK anti-commutation graph (k = 4):")
print(f"{'n':>4}  {'vertices':>8}  {'colors':>6}  {'Q+1':>5}")
for n in range(6, 17, 2):
    graph = build_graph(syk_termset(n, 4))
    colors = greedy_coloring(graph)
    print(f"{n:>4}  {len(graph):>8}  {colors:>6}  {q_of(n, 4) + 1:>5}")
