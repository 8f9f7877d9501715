"""Pinned stdout digests and exit codes of the exhaustive commands.

Each case is one `verify`, `order` or `construct ... --verify` command line
with the exit code and the SHA-256 of its stdout. The grid spans maps of
order 1, 2, 3, 4, 6 and 12, true and false cycle claims, non-bijections,
p in {2, 3, 5, 7}, a claimed length with 240 divisors (720720), and
fields above 2^16 (GF(2^17), GF(2^18), GF(3^11), GF(3^12)), so any change
to how the oracle derives cycle types must leave every document
byte-identical.
"""
import hashlib

import pytest

from ncyclepp.cli import main

CASES = [
    ('verify --p 2 --n 12 --poly x --cycle 1',
     0, "446ab276f01875ffb22d1c28cc239a71d8380c66e1fbd6f210804c4b89cbe0c7"),
    ('verify --p 2 --n 12 --poly x^64 --cycle 2',
     0, "8b7fa76832ea5fc8e2e796116e0f1ab02683062e97f9899de1ac477bc491d161"),
    ('verify --p 2 --n 12 --poly x^16 --cycle 3',
     0, "0e0e236c15209e3547fc16097db9b5ed65a7354fdbdb95822aa0b083093b6475"),
    ('verify --p 2 --n 12 --poly x^8 --cycle 4',
     0, "5457d908f7f80c9703b51c57dbe6d0f81eda609e78d5bf9d018026cf5bfae0c3"),
    ('verify --p 2 --n 12 --poly x^4 --cycle 6',
     0, "fd10eaed67f62ddec226e7b25505796a980905c530fcf69c695edccb2e277ce3"),
    ('verify --p 2 --n 12 --poly x^2 --cycle 12',
     0, "df650b73bc6c9013273af78b81ef8ed3ed674c5c54a51fc8d7503b3c83233320"),
    ('verify --p 2 --n 12 --poly x^4 --cycle 4',
     1, "b1d152125abbfdb5d733bac44f1760875adcd4370e3a57e514b8e410165fcd76"),
    ('verify --p 2 --n 12 --poly x^4 --cycle 720720',
     0, "0e23f36ef48896c124e8bde4d4a8fcfe8bc63bf92c7dfc819753ab2ac55619a3"),
    ('verify --p 2 --n 12 --poly x^11 --cycle 2',
     1, "a6faea9d5fde2a15b99e75455906685f51130fe70182ebfc0b9a38eda9b7b2e7"),
    ('verify --p 2 --n 12 --poly x^(q-2) --cycle 2',
     0, "e906321b60c2f7a00410279fa35cf80914278c5207d436a7b20ec3047d8bcb15"),
    ('verify --p 3 --n 6 --poly x^3 --cycle 6',
     0, "cf1cb28563b4bea26399d3aa7477fcce2d5df290472cd40d403d6309ecc53a68"),
    ('verify --p 3 --n 6 --poly x^3 --cycle 4',
     1, "3a4f80942933771a585625298fe9229f5af39b7787542b58b5eb85ae44346a0e"),
    ('verify --p 3 --n 4 --poly x^5 --cycle 2',
     1, "740fed788ac77074c656126aede65d4c8b4ba122385cc491f97b1d71967e9121"),
    ('verify --p 5 --n 4 --poly x^5 --cycle 4',
     0, "a98eeac6e918e7c489bf79e280d4789eddcabdbf946376e461f486e874fd053d"),
    ('verify --p 5 --n 4 --poly x^(q-2) --cycle 2',
     0, "5b48a8be2cf299864a6b255465c1f450cd9a163a2f640b447f189324a2263c18"),
    ('verify --p 7 --n 3 --poly x^7 --cycle 3',
     0, "b30ff166bae5e7ee9463e979cbab9e84ae12a8ae1f94f6e279883f761fe80b4d"),
    ('verify --p 7 --n 1 --poly x^5 --cycle 2',
     0, "32761438b3348db83cf4046e3f89089dc68db204c74dc1df3caf68452c12fb24"),
    ('verify --p 7 --n 1 --poly x^3 --cycle 2',
     1, "6ed385e13567cb8ba93ebb35053105c52e00307a69da474373f1fbae297d9164"),
    ('verify --p 7 --n 2 --poly x^5 --cycle 12',
     0, "43b22966feb59db0bf5060a5cd5f52f33d0beadae7ddba0fa0aff15187ffd025"),
    ('verify --p 2 --n 17 --poly x^(q-2) --cycle 2',
     0, "fc0fa200d4d29865f42f1300e3e557a14d8472d5c11f727a8c5bb0ae94cc5170"),
    ('verify --p 2 --n 17 --poly x^4 --cycle 17',
     0, "4c12ae5cd8b7de3cf79c5df870621a6696c775aeb017b25e89ab1714b6a424b5"),
    ('verify --p 2 --n 17 --poly x^2 --cycle 2',
     1, "82936d6db1e928efcc4b88241327d3b4d7972964b94def5745e6545c6b4bc130"),
    ('verify --p 2 --n 18 --poly x^8 --cycle 6',
     0, "01f32bd991f0cd03e3b18aa6ee6fc6ccc1b45ecad6e84f362d210fee4dfcd24f"),
    ('verify --p 2 --n 18 --poly x^8 --cycle 4',
     1, "ee7e5325e12075f9a3a0d0cd3af81c2ff3a82989e45d940c93193e3c055595b4"),
    ('verify --p 2 --n 18 --poly x^8 --cycle 720720',
     0, "36f601dec251d406a0821e6d8c7813f37d0c160621d4c90f90443db07a0c2f0e"),
    ('verify --p 3 --n 11 --poly x^(q-2) --cycle 2',
     0, "bd73e87ab3b62442d642dd0f86551fa4f01a7b274fde0a4a92cb2c30c95ec1e1"),
    ('verify --p 3 --n 11 --poly x^3 --cycle 2',
     1, "d3191954c3522b6e4cffd62f91112cd11d7f2e94c1bdc6e29162335ef19da7d1"),
    ('verify --p 3 --n 12 --poly x^3 --cycle 12',
     0, "dc76cb0278e758cad3888994cef7c6c73e73988be5a027295063318f9f75935b"),
    ('order --p 2 --n 12 --poly x^11',
     0, "0a2657abeff352c943377c09de26219f614f63ad5de26afae3daa2f60f2ef098"),
    ('order --p 2 --n 12 --poly x^2',
     0, "6db4020ee1a410ce3c3e46bf973861e48967778869a362cf3b5bb1b7244372fd"),
    ('order --p 7 --n 1 --poly x^3',
     1, "f3ed7ec1d456ad099ff1f452e4ce81e141f2accbce46c99c8441664e38238961"),
    ('order --p 5 --n 4 --poly x^5 --csv',
     0, "1eb4139f5a6ef7faf64869a4b5e245bf5622cb7b4ef14740520515fa22f6e261"),
    ('order --p 3 --n 11 --poly x^3',
     0, "4f4acc5efdccd9848483c707a5ff1b074a459252addac1c9a584654091f15197"),
    ('construct jieguo --q 64 --t 25 --m 5 --verify',
     0, "2de38e00787653033a15b77b580d8810555aed637affa960a9ddc09e31ba9ca0"),
    ('construct xq_h_alpha --q 4 --alpha 1 --verify',
     1, "cf4141bda1ceb08a5ddfbb639321fc97e76c0c074487a0e24338fb73c5f0eb61"),
    ('construct xq_h_alpha --q 64 --alpha 1 --verify',
     1, "3ef8145da8fda6d285808c4052e4c10be84e5178dbcf16fb07f025962305d61d"),
    ('construct xh_lambda --p 5 --n 2 --variant involution_cor --sub-degree 1 --verify',
     0, "ac214cb3a3f30256aae20a73e61ac15a3b6a116c32803334cd1f375c06359c11"),
    ('construct xh_lambda --p 3 --n 4 --variant involution_cor --sub-degree 1 --lam lambda2 --verify',
     0, "85899f3d72523f3ff92ca5904d03e9840783eb3371bef00d414b0abd09fa113d"),
    ('construct additive --p 3 --n 2 --variant trace_g1 --sub-degree 1 --verify',
     0, "1e486c3db15169c6da658f0a7690dc4ba8337a92035e332ef2b9a3cabda31812"),
    ('construct shift --p 7 --n 2 --variant trace_g1 --sub-degree 1 --i 1 --delta 1 --verify',
     0, "3daf89f25c95bbd240b5e01a97e2d2bdc9883b733987ac8bd5cbd119d76ef37b"),
    ('construct rs2to3m --q 64 --k 45 --verify',
     0, "f968b8ccbf632bdc59cadbed2091413c602dcd5df7ae18b7679d53e3701c4a01"),
]


@pytest.mark.parametrize("argv,code,digest", CASES, ids=[c[0] for c in CASES])
def test_stdout_digest_and_exit_code(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
