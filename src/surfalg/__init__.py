"""Quivers with potential from surface triangulations.

From a triangulation of a closed marked surface this package builds the
adjacency quiver with its potential, computes a finite basis for the quotient
of the complete path algebra by the cyclic-derivative relations over a prime
field, derives string and skewed-gentle word presentations, and produces
machine-checkable certificates for band growth (freely composable band pairs)
and for fourth-syzygy periodicity of modules.

The library is imported by module (`from surfalg import algebra`); the
package root holds only __version__.
"""

__version__ = "0.1.0"
