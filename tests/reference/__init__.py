"""Float references of the exact suite layers.

``statespace``, ``grouprep``, ``purity`` and ``composite`` hold the numpy
descriptors, conjugation superoperators, Grams, Pauli maps and witnesses
that ``verify pauli-identities``, ``gram-invariance`` and
``classical-subsystem`` once ran.  The tests tie the exact data of the
package's layers of the same names to them.
"""
