"""Certificate JSON must stay byte-identical across refactors of the decomposer.

Each corpus hashes ``to_json()`` of 2000 seeded certificates, one per line;
the digests were recorded from the implementation before the decomposition
loop was unified, so any change in step choice, arithmetic or number
formatting shows up here.
"""

import hashlib

import pytest

from majorize import (
    EXACT,
    decompose_decreasing,
    decompose_general,
    decompose_transfers,
    random_dominated_pair,
)
from genpairs import decreasing_pair, sized

PAIRS = 2_000


def _general(i):
    return decompose_general(*random_dominated_pair(1_000 + i, *sized(i)), EXACT)


def _decreasing(i):
    return decompose_decreasing(*decreasing_pair(2_000 + i, *sized(i)), EXACT)


def _transfers(i):
    x, y = random_dominated_pair(3_000 + i, *sized(i), transfers_only=True)
    return decompose_transfers(x, y, EXACT)


def _general_float(i):
    return decompose_general(*random_dominated_pair(4_000 + i, *sized(i), integer_mode=False))


def _transfers_float(i):
    x, y = random_dominated_pair(5_000 + i, *sized(i), integer_mode=False, transfers_only=True)
    return decompose_transfers(x, y)


@pytest.mark.parametrize("produce, digest", [
    (_general, "97ef76a98d67999101bbcb63f8ebbdc4726bc8b47cf311ce1bb775f7e819f5b2"),
    (_decreasing, "3b6b2b551c2c1ca9569d831dfbb53350f76ea5eed708a90f7a49238d7900a4de"),
    (_transfers, "323eb9aca4267bc70b653b9de418b7726abe15c8498951e846961cec9ea32faa"),
    (_general_float, "db031f70f1d4489cf7c234de768c8ef756bad0dcc05a2a7dcf842806dbe5ad18"),
    (_transfers_float, "dd42b97f7469c58dddb2ccb50775b135955c7616573a0075662d84adc874748e"),
], ids=["general", "decreasing", "transfers", "general-float", "transfers-float"])
def test_certificate_json_digest(produce, digest):
    h = hashlib.sha256()
    for i in range(PAIRS):
        h.update(produce(i).to_json().encode())
        h.update(b"\n")
    assert h.hexdigest() == digest
