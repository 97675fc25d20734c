"""Default parameters of the negative-type root scan.

They live apart from `negtype`, which imports numpy, so that the command
line can show them as option defaults without loading numpy for every
subcommand; `negtype` re-exports them.
"""

DEFAULT_CAP = 16.0
DEFAULT_TOL = 1e-9
DEFAULT_GRID = 0.125
