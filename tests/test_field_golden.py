"""Golden digests of the deterministic field construction.

The modulus, the generator index and the SHA-256 of the exp table, the
absolute-trace table and every proper subfield index table, each hashed as
int64 values whatever its dtype, are pinned for fourteen fields across p in
{2, 3, 5, 7, 17, 1021}.  GF(17^5) spans three chunks of input digits and
GF(1021^2) packs digits of 11 bits in its linear maps.  Any change to how
the tables are built must leave every value here unchanged.
"""
import hashlib

import numpy as np
import pytest

from ncyclepp.field import make_field

# (p, n): (modulus, generator index, sha256(_exp), sha256(tr1_table()),
#          {d: sha256(subfield_indices(d)) for every proper divisor d of n})
GOLDEN = {
    (2, 1): ([0, 1], 1,
             "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
             "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
             {}),
    (2, 8): ([1, 1, 0, 1, 1, 0, 0, 0, 1], 3,
             "11266a21c8268fe0d18220349a334db46275acf77c028eb418cf6317b305acc7",
             "7d0421ca404dd6852bd8925031b1fc1670b96d4166ad206321c62a15874503d2",
             {1: "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
              2: "abaf5ecd1545da7c5f9be09d5f50e79f819df44f4b7208395425af2a91533cfc",
              4: "99b249b2d3e7c8fa1f0e354c53a8a35aacfd9e8a3b0fa09d791b20adfc761011"}),
    (2, 12): ([1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1], 3,
              "f93111f2d5d03cbd58220f842d679e036230e6d30c67a053250bb339045d0897",
              "6b7e03ef8078f74dd106f763d8133babfdbeeecf745570ac1c92922d8d197ae6",
              {1: "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
               2: "03322022aeca9c3d9eb1b8f9f5a22d7943818f7fc5ed6103b3f0390b6911e246",
               3: "57dcde598a11c680f5b85489a895634af1922f0afc4ffbbceaeda1952a08ae03",
               4: "32c920c33097efefadbf37e1d72fc4bc56250e1188ad7d7e2e3a9497246a790f",
               6: "4419593709085ae1b4b325f789c43eb188a1120231750440e8f51d3b16051237"}),
    (2, 20): ([1, 0, 0, 1] + [0] * 16 + [1], 2,
              "d9bbf13f33c1e260b790f9f421b476acf69614250c250c8fc849abd27eb5c2fb",
              "606448b25b62d4984cc3a50fc1ee756b749a0fa99d34d31222f9ebd7fc6d0a98",
              {1: "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
               2: "b8e2bd80fb6ffaaab769e12b2babc47adbd53c831e5b7efe52503b22b1fc9f45",
               4: "55312126d2dbe93ecd6ac43dea4351bf6778f7187077f0109233cfe3c72f0cc3",
               5: "5682e0e5ebd64ac967b26508e31eeada64613b2af09471fccc6f07698d7239ee",
               10: "3a3c694cd777f99ef73816d19bbc5ec1d248dbd09c4109711b89f431a47b2447"}),
    (3, 1): ([0, 1], 2,
             "0c730b69905c5ef7a4ca5269f72365400bde2dd2c04eaf9bbb3d1c4a265a0131",
             "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946",
             {}),
    (3, 6): ([2, 1, 0, 0, 0, 0, 1], 3,
             "c35f0745b29d40992ae4c7e683072abc739cacd8d161601591a0990dffdfe563",
             "311f4d71ee6b7ed2cb775548949242b715a39be4ea7632724e18536da2f45d2e",
             {1: "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946",
              2: "9b04290b869ed62866a91ae08da49419d3474675f9c106bfa4d3a4020a787695",
              3: "6a90b8dd0bd3c6034904f7f55fb78706f0608e9ddb004f7afe4d089bbfad94af"}),
    (3, 11): ([2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1], 5,
              "b53dbf4d61d1a16256bdaae869a0ebafb266eff721fd4569e8e17ea42c507772",
              "a99f1756c418ef7e1d8e1fc03bd3ce6ea4bb76d0dc120529c42342bee0193dc3",
              {1: "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946"}),
    (5, 2): ([2, 0, 1], 6,
             "f819a08972b8bf0fe65072e895b3c905d6ffe44d290b58e9bb0e3a361657ac98",
             "60e2686151985c373969b5898215c7a16fff4237473d3746160a1c0a31e3a49f",
             {1: "281b02b10f5f4997e5bf8c93343e6f2aa8bc81ffad6d6813c593181ebceda12a"}),
    (5, 7): ([1, 1, 0, 0, 0, 0, 0, 1], 9,
             "c6a6a0d4536aaf7874ae55ef8b9af97ca9aa0724c6a9489d6eaaada1b22b3fc8",
             "134a9d99416303b7048b6c95f4d0f14f3da928d813d178cc5cc19d5f2decf7b9",
             {1: "281b02b10f5f4997e5bf8c93343e6f2aa8bc81ffad6d6813c593181ebceda12a"}),
    (7, 1): ([0, 1], 3,
             "b731ea0a2c721d83db255a5507575d6a42ccde137a2971a3c9e84dc1c88eebed",
             "81845a01dafa45c9b26e10a7af52a92e8604d5d8ef690f1e3ccdcfe3b5c6ae98",
             {}),
    (7, 6): ([2, 0, 0, 0, 0, 0, 1], 8,
             "0ae9cddf128f5e28ba688787b2af6b5f7be918d34c07edf184f9008fc2dc804b",
             "9fd1bdc579f0bba359cc74820578291bba1029b117dffa57f9dfa0aac0bebaa5",
             {1: "81845a01dafa45c9b26e10a7af52a92e8604d5d8ef690f1e3ccdcfe3b5c6ae98",
              2: "17dcf951b32fefc29d4254ded3a8441994a232437dd037049be87c1fb343df7d",
              3: "d13901012e01eab7e34beb960f0505e98c1296ab59c2c86abb5621f3eec75b0c"}),
    (3, 12): ([2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], 14,
              "1739f36a6fe74e619b8a2fcc0cb3bce3549ae91ef096b86cdf48f272c4557fcd",
              "1b04863afe2fdcb236425162fbd577448870c79d8333a9de0fefc777b3202c7c",
              {1: "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946",
               2: "638121cd30e700733def6ee2e13573bafd1798591a01bc32084fc19a3e4e720f",
               3: "57332d2cec17d1d1f7ccaf3b638be8c064514a2158a18226c0a98137f99e1b19",
               4: "5672f3c688d0f5805f8613a5f2e7c11802483e2eb1234ebe9b856392bc170301",
               6: "df0b8fdbb8ea18235ccab37bde808242eede3ddb62bc7fe27aa9ad26635bbfee"}),
    (17, 5): ([3, 1, 0, 0, 0, 1], 17,
              "6ef4fc39eedcf5d3428661cc13204683165d5bf8c5a66a93e4468fb478de84f0",
              "24fc002a14951c3dc26d63dbd83372913c21f902886424f1384f047906476be2",
              {1: "bb25b5201ac6c37409bb181321e5f74ef84fc6dd59cc690d9298e927304684f8"}),
    (1021, 2): ([2, 0, 1], 1035,
                "e529f35db12bc3dd50cbe0036fe6ec43d3e9526d20f16075c7ece4d6c59c7391",
                "d80f3a7067470132325a3b02adaefc358465508eccf9a6405a03f038f342d1e2",
                {1: "fd7b36b309417380c605acf50232d6e4ce46905f77c45feab486f6426e619281"}),
}


def _sha(arr) -> str:
    return hashlib.sha256(np.asarray(arr, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("p,n", list(GOLDEN))
def test_field_tables_match_golden_digests(p, n):
    modulus, gen, exp_sha, tr1_sha, subs = GOLDEN[(p, n)]
    ctx = make_field(p, n)
    assert list(ctx.modulus) == modulus
    assert ctx.generator.i == gen
    # exp, log and Zech tables are int32 wherever indices fit it (q <= 2^31)
    tables = (ctx._exp, ctx._log, ctx._zech)
    assert {t.dtype for t in tables if t is not None} == {np.dtype(np.int32)}
    assert _sha(ctx._exp) == exp_sha
    assert _sha(ctx.tr1_table()) == tr1_sha
    proper = [d for d in range(1, n) if n % d == 0]
    assert sorted(subs) == proper
    for d in proper:
        assert _sha(ctx.subfield_indices(d)) == subs[d], d
