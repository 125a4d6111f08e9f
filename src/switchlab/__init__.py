"""Finite laboratory for switch groups acting on 3-colored complete
bipartite graphs: recoloring operators, orbit partitions of candidate
groups, extension-property checking, and failure-probability bounds."""

__version__ = "0.1.0"
