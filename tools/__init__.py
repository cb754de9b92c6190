"""Data provenance for the bundled problems, outside the installed package.

`bundled` holds the constructors and quantum-data generators of the six
shipped `.glb` files and `write_bundled_data`, which writes them through
the canonical serializer in `serialize`.  The command-line program never
imports this package; the test suite regenerates every bundled file from
it byte for byte.
"""
