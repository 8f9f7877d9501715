"""Golden digests of the seeded fuzzer's output.

For every fuzz family and seeds 0 and 1, the SHA-256 of the JSON lines of a
60-trial run is pinned.  The digest covers every trial's kind, field,
parameters and outcome, so a change to how the fuzzer samples or builds its
instances must keep every random draw in the same order and every verdict
the same.
"""
import hashlib

import pytest

from ncyclepp.oracle import FUZZ_FAMILIES, random_family_fuzz

TRIALS = 60

# (family, seed): sha256 of "\n".join(random_family_fuzz(...).to_json_lines())
GOLDEN = {
    ('abc_cor', 0):
        "45b74dedfbd94dbe2cdb6151508dc2a5c37028e02cd98727480d64fe16981a48",
    ('abc_cor', 1):
        "55bb9b5c92bb67ca958b53399fea537b288187ddb5e13e92d5de751b1e71a63f",
    ('additive', 0):
        "3b056ffc778c7bf5b6a993a76a6cd82aaf882e749c1842a5df87f392fd7ae17c",
    ('additive', 1):
        "f3fa7195fe93bcc62664182d43549347457e06efa791f5dabd86be41e020633d",
    ('involution_cor', 0):
        "3c5c96901c0b36967d5fb393dfa41207c6096d9be78c4fbe6187d027a37b53b0",
    ('involution_cor', 1):
        "0b523e7d597a7aaafcada3321056e7dbb673ec6b654547b3adf6de0fdc1d4d13",
    ('jieguo', 0):
        "d5cc87fc291cba42dac6c5506ee5f9faa56bbee343993e2070556a69f7c16f71",
    ('jieguo', 1):
        "f2cb121ce900c2b0001ae70bb3c60c2e47b434c5a6548550ae91a6fecd40195c",
    ('rs2to3m', 0):
        "6a376a7c72f0c3da28b82031d4e3016eaa711b9c6b35e8969be638b5e54e40e1",
    ('rs2to3m', 1):
        "a7f7f5a89a38357f99707fa9f7e0a06f930cf18ca863e97337b98cc669904286",
    ('shift', 0):
        "c4805bbc68f6a94bdeb50cef5bfb549d86f01690522cda399e2c476dea647dd7",
    ('shift', 1):
        "1d22777290c739c8f62f125cc00952354b75d04f83111e253108a754508027e4",
    ('theta_cor', 0):
        "05562522756fd8c40122a55b688140b1fd146043e614feb50bf63a00ec457893",
    ('theta_cor', 1):
        "eb416ed2d587e7317224c9a38cf29a7e10f2852dea7f7a8929487c33b68d13a3",
    ('trace_theta', 0):
        "a9ce88e5d9c914930b3b31d1c834ec9527317b6174bd97a040adc639f065fd42",
    ('trace_theta', 1):
        "e665fc243c16d2a05b063ae5f88547b5cd0644bcc5ce06f6a8b3f3ffa343fa9a",
    ('xq_h_alpha', 0):
        "a47917f70d724dbd21dbeb6df3baa93d12d4b0786162c0d9af7007867584c178",
    ('xq_h_alpha', 1):
        "e7b320d33456d7abbec6fd9844ad21e2032748f6a004f3dd41b684a26dcebd01",
}


def test_every_family_is_pinned():
    assert {family for family, _ in GOLDEN} == set(FUZZ_FAMILIES)


@pytest.mark.parametrize("family,seed", sorted(GOLDEN),
                         ids=[f"{f}-{s}" for f, s in sorted(GOLDEN)])
def test_fuzz_output_digest(family, seed):
    lines = random_family_fuzz(family, seed, TRIALS).to_json_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN[(family, seed)]
