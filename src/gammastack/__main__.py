"""`python -m gammastack` runs the command-line interface."""

import sys

from gammastack import cli

if __name__ == "__main__":
    sys.exit(cli.main())
