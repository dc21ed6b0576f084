"""Run the suite against this checkout's src without an install: src goes
first on sys.path, and first on PYTHONPATH so that child interpreters
(python -m hornlab) import the same code."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
