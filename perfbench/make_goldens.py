#!/usr/bin/env python3
"""Regenerate ``goldens.json``, the outputs every benchmark run is checked against.

    python3 perfbench/make_goldens.py

Records a digest of the certificate JSON of every index-one spec with
n <= 8 and of the ladder's contact rungs, and the sha256 of the census CSV
for the census and its warm-up. Certificates and CLI output must stay
byte-identical, so regenerate only when a change means to alter them.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import seaweed  # noqa: E402
import seaweed.cli  # noqa: E402,F401
from workloads import (  # noqa: E402
    CENSUS_N,
    CENSUS_WARMUP_N,
    CERT_MAX_N,
    GOLDENS_PATH,
    LADDER_CONTACT,
    _census_run,
    cert_digest,
    sha256,
)


def main() -> None:
    certificates = {}
    specs = [sp for n in range(1, CERT_MAX_N + 1) for sp in seaweed.spec_pairs(n)
             if seaweed.index(sp) == 1]
    specs += [seaweed.SeaweedSpec.parse(t) for t in LADDER_CONTACT]
    for sp in specs:
        certificates[sp.text()] = cert_digest(seaweed.synthesize_contact(sp).to_json())
    census = {
        str(n): sha256(_census_run(seaweed, n, {"census": {}})[0])
        for n in (CENSUS_WARMUP_N, CENSUS_N)
    }
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"census": census, "certificates": certificates}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
