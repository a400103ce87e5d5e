"""Set-up probe, run in a fresh interpreter: import dickesim and build the
first inputs of a workload (its space and drive terms).

Usage: ``python3 perfbench/probe.py '<op params as JSON>'``
"""

import json
import sys

import dickesim  # noqa: F401  (the import is part of what is timed)
from dickesim.drive import drive_terms

from ops import experiment_config

cfg = experiment_config(json.loads(sys.argv[1]))
cfg.space()
drive_terms(cfg.rap_drive())
