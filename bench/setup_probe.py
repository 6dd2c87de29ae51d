"""Fresh-interpreter set-up probe: import ncdiff and build each model once.

    python3 bench/setup_probe.py builtin:gl-pq2 path/to/model.ncd ...

Run from the root of a checkout.  Builtins are built with the library's
default verification; model files are built as the command line builds
them.  run.py times this whole process to get setup_s.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from ncdiff.dsl import load_model  # noqa: E402
from ncdiff.models import build_glpq, build_quantum_torus  # noqa: E402

BUILTINS = {
    "quantum-torus": build_quantum_torus,
    "gl-pq2": build_glpq,
    "gl-pq2-localized": lambda: build_glpq(adjoin_det_inverse=True),
}

for spec in sys.argv[1:]:
    if spec.startswith("builtin:"):
        BUILTINS[spec[len("builtin:"):]]()
    else:
        with open(spec) as handle:
            load_model(handle.read(), verify=False)
