"""Code outside the installed package: the bundled problems' provenance, and
a rank count for the tests.

`bundled` holds the constructors and quantum-data generators of the six
shipped `.glb` files and `write_bundled_data`, which writes them through
the canonical serializer in `serialize`.  `ranks` holds
`cohomology_rank`, which only the test suite reads.  The command-line
program never imports this package; the test suite regenerates every
bundled file from it byte for byte.
"""
