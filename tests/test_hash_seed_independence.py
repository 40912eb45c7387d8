"""The paper figures do not depend on Python's string-hash salt.

Anything derived from the built-in ``hash()`` of a string (a host's IP
octet, say) changes with ``PYTHONHASHSEED``; the XML byte counts, and
with them the parse and serve charges behind Fig. 5/6 and Table 1,
would move with it.  Two interpreters with different salts must print
the same figure.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def fig5_output(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "experiment", "fig5",
            "--hosts", "4", "--window", "30", "--warmup", "15",
        ],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return result.stdout


def test_fig5_identical_under_two_hash_seeds():
    first = fig5_output("1")
    assert "Figure 5" in first
    assert fig5_output("2") == first
