"""Exact connectedness decisions for planar integer self-affine sets.

The attractor T of an expanding 2x2 integer matrix A (characteristic
polynomial x^2 + p*x + q) and a lattice digit set D satisfies
A T = union of T + d over d in D.  This package decides, with exact
integer arithmetic and machine-checkable certificates, whether T is
connected, specializing in the three-digit systems {0, v, k*Av} with
|q| = 3, where connectedness holds exactly for k = +-1.
"""

__version__ = "0.1.0"
