"""CLI output contract for count, total, verify and ``table --primes``.

``PINNED`` holds the sha256 of (exit code, stdout) of each command line, in
every format: those of count, total and verify were taken before the three
subcommands shared one renderer, those of ``table --primes`` before every
table row was fitted from the automatic prime pool (``table --R 9 --primes
5,7,11,13`` is too short a list to fit several rows); any change to what
they print shows here.  The four ``verify`` lines whose every case is
``SKIPPED`` were re-pinned when such a run began to exit 2; their stdout
is unchanged.  The two ``verify --k 2 --p 3 --R 3..16`` and ``verify --k 1
--p 11,13 --R 3..10`` lines, whose cases run on two cores where there are
two, were pinned from the serial loop before that change.  The two
``verify --k 1 --p 3 --R 200..207`` lines (long rank-1 rows, one forked
child on two cores) were pinned while the oracle still listed every orbit
on ``verify``'s path, before it counted them by type instead.  ``verify
--format csv`` is checked against the JSON results instead.
"""

import contextlib
import csv
import hashlib
import io
import json

import pytest

from topotype.cli import main

PINNED = [
    ("count --p 5 --k 2 --partition 2,2 --format plain", "35b26c4a392ab682501dec2ab5816df8a795172494601afd7de5785ab7b3251d"),
    ("count --p 5 --k 2 --partition 2,2 --format json", "3b4fce2c446a7e4eac21aa68b567b5b43641da41e000045612307318eb2893b7"),
    ("count --p 5 --k 2 --partition 2,2 --format csv", "070b18c1f921ad57df64f227bd4210729aa3458e493545b11de45284f6037515"),
    ("count --p 7 --k 2 --partition 1^5 --format plain", "a73e9d3b668d798543330c398ffc88a10e3ea935b4070e73013fb2b9d557ab42"),
    ("count --p 7 --k 2 --partition 1^5 --format json", "c674d2b29c2c73bf776d5a2acbc63a87de08f2b25b1e98f15ac67f031936d75c"),
    ("count --p 7 --k 2 --partition 1^5 --format csv", "31598a4ab2dd554e831c700455d2f5f9798c3618339f0f4e6f852e13f011980a"),
    ("count --p 5 --k 2 --partition 2,2 --R 4 --format plain", "35b26c4a392ab682501dec2ab5816df8a795172494601afd7de5785ab7b3251d"),
    ("count --p 5 --k 2 --partition 2,2 --R 4 --format json", "3b4fce2c446a7e4eac21aa68b567b5b43641da41e000045612307318eb2893b7"),
    ("count --p 5 --k 2 --partition 2,2 --R 4 --format csv", "070b18c1f921ad57df64f227bd4210729aa3458e493545b11de45284f6037515"),
    ("count --p 2 --k 2 --partition 2,2,2 --format plain", "1beb565ee919ccb366820592638f15a2e190b1f8d06563581e7788f4a5417871"),
    ("count --p 2 --k 2 --partition 2,2,2 --format json", "26011682a4dc47e6b41e390d3fc5ef11dac5cb487c43010963131316c6b76a31"),
    ("count --p 2 --k 2 --partition 2,2,2 --format csv", "59ff2bf77d73c236fd9f51f81e23f8a9a01a5de2f638ae7a347b5b12922cc2cb"),
    ("count --p 2 --k 2 --partition 3,2,1 --format plain", "cf41e95979e6cedf90c7004ccc17a5006c9c2d6a6698ae73d7001ec77649d65e"),
    ("count --p 2 --k 2 --partition 3,2,1 --format json", "a4bb576b08ebf357dff4ca0704bb694e782b6ca0414d7791f9f6792f4b7e92f8"),
    ("count --p 2 --k 2 --partition 3,2,1 --format csv", "0c5b0ccaca43e64e85aafa233999142d660774fd13cba297c92e7f7ba362f3ae"),
    ("count --p 2 --k 2 --R 6 --format plain", "61effa18d0949f094459fa3c54e62d3a3609dc4d74219d4c8e3ba6a8fb67559e"),
    ("count --p 2 --k 2 --R 6 --format json", "9a1b4814d555e7bbcaba15f34a1e1af1a0702d60539c8de624de5b81069f2465"),
    ("count --p 2 --k 2 --R 6 --format csv", "096a1efbed7f99b90236aafdb8bc69403d3f96d174edc4663de52de8f1fcba69"),
    ("count --p 2 --k 2 --R 3 --format plain", "2adc22622e3850b3e034ec1e7d9e8b9d68006d521a2e9f16abd7a61b8517df4e"),
    ("count --p 2 --k 2 --R 3 --format json", "8bc812331b91a5c2dff5e91c4ef658155991cb82d6bcb23674284027c8f6979f"),
    ("count --p 2 --k 2 --R 3 --format csv", "8c4fbb180acb9699069bdd825641620ef544a961977cca4b260f9bf7b1610db2"),
    ("count --p 3 --k 1 --R 4 --format plain", "115fdb0cfa1aeb73f49fb06114fcb0012cbd81f307529c7728a42a8e1c7ee42b"),
    ("count --p 3 --k 1 --R 4 --format json", "d905c0288c050df20760f2c20e0b535964e95699b6593f38eeed4f4e3e05b15a"),
    ("count --p 3 --k 1 --R 4 --format csv", "7058fcfb72ba861bfc543ad1919c5023fd00df105000364338fa2dab404c1550"),
    ("count --p 7 --k 1 --R 6 --format plain", "09200f8c71f550955a9a5c51ce3f6646558f0926137bbd79d8b77a60d0d95bf3"),
    ("count --p 7 --k 1 --R 6 --format json", "02be00f593b9adfd6ce8ca15aab84b088ea53a98ec7d239157b0cbc2d8f82b4c"),
    ("count --p 7 --k 1 --R 6 --format csv", "3643a60310a89e4234adc5011fec5ff725ccefa00df7c334bce9912443075f23"),
    ("count --p 3 --k 1 --partition 4 --format plain", "115fdb0cfa1aeb73f49fb06114fcb0012cbd81f307529c7728a42a8e1c7ee42b"),
    ("count --p 3 --k 1 --partition 4 --format json", "d905c0288c050df20760f2c20e0b535964e95699b6593f38eeed4f4e3e05b15a"),
    ("count --p 3 --k 1 --partition 4 --format csv", "7058fcfb72ba861bfc543ad1919c5023fd00df105000364338fa2dab404c1550"),
    ("count --p 2 --k 1 --R 6 --format plain", "b4466cbbfd98c1434182a9a804ad1ae54faad7733a648def13aea3f5e8aeee40"),
    ("count --p 2 --k 1 --R 6 --format json", "16cce3a79a009216d77e591689514d5565eaec496915e722069b8407e19c0eb1"),
    ("count --p 2 --k 1 --R 6 --format csv", "36474d6317390e84e05c515a11fd75370c24cfa8529b63e747dbf7611bc3c8f7"),
    ("count --p 2 --k 1 --partition 5 --format plain", "3498f6ace34be72e1f6dd5662636478fd5be924a6e5a200fe3190b3724bedca2"),
    ("count --p 2 --k 1 --partition 5 --format json", "c48b99cdb5bbb8284f88b0cffb71ab3fa6ce19f60b33b160631f816e19fb6cee"),
    ("count --p 2 --k 1 --partition 5 --format csv", "ce9310d4465ae96c13858e87cb74eaad810cd7ea99ab94a7ce01c4722ff005a9"),
    ("count --p 9 --k 2 --partition 2,2 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 9 --k 2 --partition 2,2 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 9 --k 2 --partition 2,2 --format csv", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 5 --k 2 --R 4 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 5 --k 2 --R 4 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 5 --k 2 --R 4 --format csv", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 5 --k 2 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 5 --k 2 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 5 --k 2 --format csv", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 5 --k 2 --partition 4,1 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 5 --k 2 --partition 4,1 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 5 --k 2 --partition 4,1 --format csv", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 3 --k 1 --partition 2,2 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 3 --k 1 --partition 2,2 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("count --p 3 --k 1 --partition 2,2 --format csv", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("total --p 5 --k 2 --R 4 --format plain", "1776c72ec53eeab2ef2c6c861f8276671c2666b6880765047890ad2d16480c9c"),
    ("total --p 5 --k 2 --R 4 --format json", "275de2a9d5343299f5e734e1a693f59a10df72c9743457784d52f639cda24a6c"),
    ("total --p 5 --k 2 --R 4 --format csv", "bc53923a9ddaaf0bde18c4e8840fcf3714000fa4240ded7b21a56689a9b8e889"),
    ("total --p 7 --k 2 --R 6 --format plain", "c996a141584b7a0278045f719a032248415959a1d3d0b155cb06f69dfa7b2e5d"),
    ("total --p 7 --k 2 --R 6 --format json", "ad182bcaa2f7be2aed406c615b070d2f21addeaf1df3a7069cf21dad545debf2"),
    ("total --p 7 --k 2 --R 6 --format csv", "af6c29b94a6e835cd744b16ba5816c1f937d1ce36065f70bce7c26d0f293e87c"),
    ("total --p 2 --k 2 --R 6 --format plain", "dcefb00ac9fbf66300ae4e9e7da207054a05091e03e43d37a5b73f2623bb9f15"),
    ("total --p 2 --k 2 --R 6 --format json", "7410217fc3a8a7cae15e0bd1b7b8faa586db8b0c259d65f30fffe900b064e424"),
    ("total --p 2 --k 2 --R 6 --format csv", "aebb5e0427fab9def85c0c1d72ec0b5e716838cbf6fef4a91b04aa77b2f2f983"),
    ("total --p 2 --k 2 --R 3 --format plain", "d5a3bf73a0a3a0d6557d4de5bf1b8db81d5cf3282c7acc4a8ee722c7207af1df"),
    ("total --p 2 --k 2 --R 3 --format json", "135e27892ca3115c902695f2a17cffb56c28e60e06b588a9bd780bd77c6f2b4d"),
    ("total --p 2 --k 2 --R 3 --format csv", "7ff30ad78a2e25847f520908f73376cc62e332bf076cda19345a2e3dfceab564"),
    ("total --p 3 --k 1 --R 5 --format plain", "a8c996c9a151e5b9272ca0cb1524eb8610a0004643d547b002ace86fba2428fd"),
    ("total --p 3 --k 1 --R 5 --format json", "1e72fe2aad5d0a5303cb7c5bc18caee51456ce9b29807feb220ed9a4f6cbd4dd"),
    ("total --p 3 --k 1 --R 5 --format csv", "9287ed389c097961072f9aeb60536ccc5847bf6d3e30868f025cc84b441b39af"),
    ("total --p 2 --k 1 --R 6 --format plain", "ebba71379b831e8c2c43ea7155a07e2334cc8c47bf46bb7ac8febd85bd673e07"),
    ("total --p 2 --k 1 --R 6 --format json", "19eb45838b378efa834b1fe5b8bf82e582ef73148daad43b73e46dece4bcebe0"),
    ("total --p 2 --k 1 --R 6 --format csv", "e8fda4dc045720af2feaead7f4021a6f1e75e542c3ecf32704ae156315b34026"),
    ("total --p 4 --k 2 --R 4 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("total --p 4 --k 2 --R 4 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("total --p 4 --k 2 --R 4 --format csv", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("total --p 5 --k 2 --R 2 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("total --p 5 --k 2 --R 2 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("total --p 5 --k 2 --R 2 --format csv", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("verify --p 5 --k 2 --R 4 --format plain", "007d383f3b172731b7f2f8a467b4b7b23d2e78aafb159ffc0a1f305b03d66c4b"),
    ("verify --p 5 --k 2 --R 4 --format json", "7d4671b1a79fb035a1805ab0044cc566085c36fe167238e3138f63024d621e00"),
    ("verify --p 3 --k 2 --R 3..6 --format plain", "a257fe79ee78860a64625f805a6759c196b281aabb1f132ddc5ede03b8b1f923"),
    ("verify --p 3 --k 2 --R 3..6 --format json", "7beec5084516e51386516cde05d15767e0f5593484a9614603b47b3e6a650382"),
    ("verify --p 2 --k 2 --R 3..8 --format plain", "32201f6be721cd60ddf3c8b2177f2d6d464275ea0669d03e0698a9cdff906316"),
    ("verify --p 2 --k 2 --R 3..8 --format json", "ab06413a0accae01cf0b4d9262016c43a02459902ef07b88d54951695bf5ed8f"),
    ("verify --p 3,5 --k 1 --R 3..6 --format plain", "00d888bcd2fef7de3b10680c5821e292020899ea8c892f6a5917bb109f0077b5"),
    ("verify --p 3,5 --k 1 --R 3..6 --format json", "460dc358864ef24173dbdc933fbcf73dd6ed38c33684a6ddc6bd7be871ae4fc2"),
    ("verify --p 2 --k 1 --R 3..6 --format plain", "c9f7ac66f73b633c5e3e1f2942f1aba82e8366f55c2a4187205916ffb05ef023"),
    ("verify --p 2 --k 1 --R 3..6 --format json", "da1899fd3ea08c586a0dccf95c0f6814a7f8a2d0c6379bf534d1591290e0f289"),
    ("verify --k 2 --p 3 --R 3..16 --format plain", "82fe5c718001382df33d0b537f3a4439245131581835963a629f6f27c77521f2"),
    ("verify --k 2 --p 3 --R 3..16 --format json", "238a0aa6b78732ac501accc0455c708e01a75ff2647db6558a2c4f1b774d9f6d"),
    ("verify --k 1 --p 11,13 --R 3..10 --format plain", "6a7d406249b521fa5c702ff36fd1c4143cd4ffc823559eeb8b6ea31055f59602"),
    ("verify --k 1 --p 11,13 --R 3..10 --format json", "733ed56151c6cf40d431241a472480c245c0280df8ebf28c30362c69bd9d8a22"),
    ("verify --k 1 --p 3 --R 200..207 --format plain", "4e371113946939e5c771c91df0f0e47e46e05445a4495699242914c802e9e5c6"),
    ("verify --k 1 --p 3 --R 200..207 --format json", "97b79db9639a132419683888059561cdb9099c3df198da587776fcdc0c4e4248"),
    ("verify --p 13 --k 2 --R 8 --format plain", "083e5f0f8d85c09c14c709155c76f547a82b1cca6bd69b87c65d43b825dfca2b"),
    ("verify --p 13 --k 2 --R 8 --format json", "4c385cefcc8cf5a3f4b97dad274735a62b9d7e7571e5d27c10200f3463fbaaf4"),
    ("verify --p 5 --k 2 --R 4 --guard-steps 10 --format plain", "19ddad0ed2998caed4c42cadb6b5559c9b4dd21ac9daaeec0464ba4ea0499484"),
    ("verify --p 5 --k 2 --R 4 --guard-steps 10 --format json", "8210b8a4011bd92d06424a4fc22b9e2892b46ce98c2ff077ac770720d647e6b7"),
    ("verify --p 5 --k 1 --R 2 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("verify --p 5 --k 1 --R 2 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("verify --p 5 --k 2 --R 6..3 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("verify --p 5 --k 2 --R 6..3 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("verify --p 4 --k 2 --R 4 --format plain", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("verify --p 4 --k 2 --R 4 --format json", "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("table --R 6 --primes 5,7,11,13,17,19 --format plain", "e9bc88b4a00602348ba93c92e4ee78998a4874e5d509bcbd9ea67d4801a29da7"),
    ("table --R 6 --primes 5,7,11,13,17,19 --format json", "aad4da29bdee50924aca7ba6c5209dc6eba00a9d3b742bd4c5d03c1e81e47f44"),
    ("table --R 6 --primes 5,7,11,13,17,19 --format csv", "33442773237ff149a392af69033b0e65a5f9455a67c3d5fe6768e388d2f0bf76"),
    ("table --R 9 --primes 5,7,11,13 --format plain", "9c4f19edaf7ddf71739bed9962eefff26461e3d2e3a18cf8d057560606b34bad"),
    ("table --R 9 --primes 5,7,11,13 --format json", "080db27da128f031c312811a28aebcc5e6d177cd2d5538350f5cb1efb9662976"),
    ("table --R 9 --primes 5,7,11,13 --format csv", "6c12c44713070a9c8520b8d69f3a2a14ee8129794c281907b9b46f69e46e3683"),
]


def run(argv: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, digest", PINNED, ids=[argv for argv, _ in PINNED])
def test_cli_bytes_are_pinned(argv, digest):
    code, out, _ = run(argv)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest


@pytest.mark.parametrize("args", ["--p 5 --k 2 --R 4", "--p 13 --k 2 --R 8"])
def test_verify_csv_matches_json(args):
    json_code, json_out, _ = run(f"verify {args} --format json")
    csv_code, csv_out, _ = run(f"verify {args} --format csv")
    assert csv_code == json_code
    rows = list(csv.reader(io.StringIO(csv_out)))
    header = ["p", "R", "partition", "oracle", "formula", "status", "reason"]
    assert rows[0] == header
    results = json.loads(json_out)["results"]
    assert rows[1:] == [[result.get(column, "") for column in header] for result in results]


def test_count_R_must_match_partition():
    code, out, err = run("count --p 5 --k 2 --partition 2,2 --R 7")
    assert (code, out) == (2, "")
    assert "--R 7" in err and "sums to 4" in err
    code, out, _ = run("count --p 5 --k 2 --partition 2,2 --R 4")
    assert code == 0
    assert "R: 4" in out
