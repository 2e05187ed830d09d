"""Slot-insertion codec for permutations with machine-model acceptors.

The package encodes permutations as words over the alphabet l, r, m, f, t,
decides legality and pattern avoidance of those words on a space-bounded
tape and on a stack automaton, and cross-validates everything against
brute-force enumeration.
"""

__version__ = "0.1.0"
