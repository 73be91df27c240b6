"""Run every available grid-scan lane on the lambda-grid cases.

    python3 perfbench/lanes.py '<JSON list of estimate-lambda configs>'

Prints one JSON object per case, mapping each lane to its
[max_ratio, argmax_x, argmax_y, pairs]; run.py compares them bit for bit
with each other and with the CLI's reports.
"""

import json
import sys

from equimean import _kernels
from equimean.means import mean_from_name
from equimean.spaces import space_from_json

for cfg in json.loads(sys.argv[1]):
    space = space_from_json(cfg["space"])
    name, param = mean_from_name(cfg["mean"], space).kernel
    lanes = _kernels.grid_scan_both(name, param, space.a, space.b, cfg["grid_step"],
                                    cfg.get("excluded_diameter", 1e-6))
    print(json.dumps({lane: list(result) for lane, result in lanes.items()}), flush=True)
