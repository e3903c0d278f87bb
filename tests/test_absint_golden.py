"""Exactness golden for the abstract interpreter.

``tests/data/absint_golden.json`` holds, for a fixed corpus of suite
workloads, the Imagick pair and the example programs, digests of every
``AbsintResult`` field and of the self-check and full lint diagnostics
(see ``tests/data/make_absint_golden.py``).  Any engine change that is
meant to be a pure speed-up must reproduce every digest exactly.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_absint_golden", os.path.join(_DATA, "make_absint_golden.py"))
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_gen = _load_generator()

with open(golden_gen.GOLDEN) as _handle:
    GOLDEN = json.load(_handle)


def test_golden_covers_the_whole_corpus():
    assert sorted(GOLDEN) == sorted(golden_gen.corpus_labels())


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_absint_matches_golden(label):
    program, regions = golden_gen.load(label)
    assert golden_gen.digests(program, regions) == GOLDEN[label]
