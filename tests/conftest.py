"""The test session computes as the command line does: NumPy's BLAS pinned
to one thread before any test runs, whatever the environment set."""

from measim import helper

helper.pin_blas()
