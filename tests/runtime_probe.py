"""Run the five README commands on the runtime dependencies alone.

scipy is made unimportable, and numpy's least-squares routines (np.polyfit
and np.linalg.lstsq, which call LAPACK) raise.  The script prints the exit
code of each command and the scipy and numpy.ma modules loaded after them,
as one JSON line, and exits 1 unless every command exits 0 and neither kind
of module is loaded.  test_cli.py runs it on the source tree; run it with an
installed package's interpreter to check the installed package:

    python tests/runtime_probe.py
"""

import contextlib
import io
import json
import sys

import numpy as np

sys.modules["scipy"] = None  # any scipy import now raises ImportError


def _no_lapack(*args, **kwargs):
    raise AssertionError("a command called numpy's least-squares routines")


np.polyfit = np.linalg.lstsq = _no_lapack

from diracshoot import cli  # noqa: E402  (after the patches above)

codes = {}
for argv in (
    ["classify", "--lambda", "0.5"],
    ["ground-state"],
    ["asymptotics", "--epsilon", "0.5"],
    ["portrait", "--lambda", "0.5", "--resolution", "16"],
    ["verify"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = cli.main(argv)
loaded = sorted(
    m
    for m, mod in sys.modules.items()
    if mod is not None and (m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])
)
print(json.dumps({"codes": codes, "loaded": loaded}))
sys.exit(0 if set(codes.values()) == {0} and not loaded else 1)
