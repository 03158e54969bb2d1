"""Single entry point for ordering a matrix."""

from __future__ import annotations

from repro.graph.structure import adjacency_from_matrix
from repro.ordering.amd import approximate_minimum_degree
from repro.ordering.minimum_degree import minimum_degree
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.permutation import Permutation
from repro.ordering.rcm import reverse_cuthill_mckee
from repro.sparse.csc import SymCSC

METHODS = ("nested_dissection", "minimum_degree", "amd", "rcm", "natural")


def order(a: SymCSC, method: str = "nested_dissection") -> Permutation:
    """Compute a fill-reducing permutation of *a*.

    ``method`` is one of ``nested_dissection`` (default; what the paper's
    analysis assumes), ``minimum_degree``, ``amd``, ``rcm``, or ``natural``.
    """
    if method == "natural":
        return Permutation.identity(a.n)
    g = adjacency_from_matrix(a)
    if method == "nested_dissection":
        return nested_dissection(g)
    if method == "minimum_degree":
        return minimum_degree(g)
    if method == "amd":
        return approximate_minimum_degree(g)
    if method == "rcm":
        return reverse_cuthill_mckee(g)
    raise ValueError(f"unknown ordering method {method!r}; options: {METHODS}")
