"""Supervisory-control toolkit for discrete-event systems."""

__version__ = "0.1.0"

# The corpus's controllability partitions (see desctl.fms).  They live here so
# that the CLI can offer them without importing the corpus module.
PARTITIONS = ("sec28", "sec2")


class InputError(ValueError):
    """Malformed input from outside the program; the CLI exits 2 on one."""
