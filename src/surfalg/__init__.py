"""Quivers with potential from surface triangulations.

From a triangulation of a closed marked surface this package builds the
adjacency quiver with its potential, computes a finite basis for the quotient
of the complete path algebra by the cyclic-derivative relations over a prime
field, derives string and skewed-gentle word presentations, and produces
machine-checkable certificates for band growth (freely composable band pairs)
and for fourth-syzygy periodicity of modules.

The library is imported by module (`from surfalg import algebra`); the
package root holds only __version__.

Every record the package defines (a triangulation, a quiver, an algebra, a
module, a band census, a certificate, ...) is a named tuple: it compares
and hashes as the tuple of its fields, and the attributes some records keep
beside their fields (a quiver's arrows by id, a module's stored results, an
algebra's cached tables) take no part in either.  No record is a
dataclass, whose generated methods every import of the package would pay
for at start-up.
"""

__version__ = "0.1.0"
