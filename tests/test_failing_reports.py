"""Pinned digests of verify reports that fail, and so print cell values.

A passing report prints only counts, so the pins of tests/test_acceptance.py
never read a failing orthogonality cell or duality value.  These reports do:
`verify --order 12 --check-d d-1` (where d - 1 >= 1) and `--check-d d+1` on
every default sample, and `verify --order 20` on three irregular couples
(n alpha_(d+1) = beta_d at some n <= 20), whose boundary cells vanish.  The
digests were computed while every orthogonality cell was still built as a
Fraction and an OrthCell as it was checked, so the cells built on demand
from their integers must print the same bytes.
"""

import hashlib
import json

from dsheffer import catalog
from dsheffer.cli import main

# (family, d, check_d) -> sha256 of verify --order 12 --check-d check_d
CHECK_D_DIGESTS = {
    ("laguerre-eq9", 1, 2): "a7507783bb28341074df1a7d61a95be286c1c545adfe94a0f842eb531779ada7",
    ("laguerre-eq9", 2, 1): "32586971583f25774a3ed1b859007d988565864523042889e564b6e0994037cb",
    ("laguerre-eq9", 2, 3): "53f68fbd88599fbd6fbc5e56413a67eed534d9a12e1b0eaa73c1b736d4877e59",
    ("laguerre-eq9", 3, 2): "5403524e37ff00f268cda4d8212ad344576b850f1273af5f6347bd6e197616f2",
    ("laguerre-eq9", 3, 4): "655282cbfa5caacc697ae11b6de1b3757fcef2477d034a628abb6af3033ec119",
    ("laguerre-eq10", 1, 2): "d5ad0d0c601ee9bc657a4b09e9981012b609e7d775a126cc3f4f0b19e134315c",
    ("laguerre-eq10", 2, 1): "3ac69b6eba242fd3e6fcb7e5282034e40364cf0ba88522c37fecd5e08372fc81",
    ("laguerre-eq10", 2, 3): "49ea37fab51e7a82802722d6b7a8f8e6ed775cd2b384876563de9f45f733a01c",
    ("laguerre-eq10", 3, 2): "f648fe5af9fbcf8d3fee7bf13e74bfe31fa3fce63568f92ddffc5da6c85e1be2",
    ("laguerre-eq10", 3, 4): "99224a5a75a42cb26d21e78d038fa8899871fd3d29e965d5edd292db9fb95450",
    ("laguerre-eq11", 2, 1): "fbaf871fed5d7221ff90de4772ce3a6deec44df904e84d684b92d60d354545db",
    ("laguerre-eq11", 2, 3): "985b6d882767d1b05f8227ef2ff14bd7d97c6ed4f96827dc28ac1027f28d72d8",
    ("hermite-eq12", 1, 2): "f9c6f96fb34eeec968bf93642d50669c13317d238efba7ab55ad5ba4be89d7d6",
    ("hermite-eq12", 2, 1): "6867614e9866920c784d1879b1165d30f4a7c56ce5945257fba5b1ec272585e6",
    ("hermite-eq12", 2, 3): "00c5c4fe309eb3bd95e0b676f8cc32507b23b78016bb593f8b75952b98169599",
    ("hermite-eq12", 3, 2): "ab3406c292adf4eb68d60f2e4a827bc822c6282566409e40f982b2896c552ad6",
    ("hermite-eq12", 3, 4): "777f9acec187075b98bd46748a0177c2b8736cc607886bddb148ae88f8f7565e",
    ("charlier-eq13", 1, 2): "32149fdd01e11ce75b4e2e81795d7bb1a417e80dc42db77f4d33868a0e4f256b",
    ("charlier-eq13", 2, 1): "55a308bee358ab2bfef233ed5f4b2b3b3c0759d0f8e7c57a226a4ecc8e4b6eb2",
    ("charlier-eq13", 2, 3): "e1a9828f7a68084b6250f6d108e7d2f96b988402b711a8bcda37c979f78c7607",
    ("charlier-eq13", 3, 2): "75dac419f07688b100f3403db3c11785e8d4226d4df5cb3c5ecc1c1698c9fde5",
    ("charlier-eq13", 3, 4): "4fb45a74e95712934d356d8e9d842573ab4bc3fa3a45eb885ccc3dcbb93ae750",
    ("meixner-eq14", 1, 2): "8e7146538c8095f8196e33a002558cf022f336cb9c670e787feb5cbd0346b616",
    ("meixner-eq14", 2, 1): "736ea73764c508406cad02e69ac3bc3002a7554137959e4abe00b1b00272d47c",
    ("meixner-eq14", 2, 3): "4f5382fa7f388bcfff6039d057fc01557cc43e27e8f8d59f0e00725ca5075a55",
    ("meixner-eq14", 3, 2): "e83ea733faf7ec9e58e960819ce27b5b5d0587ca46fd779b89e6f96299697a93",
    ("meixner-eq14", 3, 4): "0d69bd751f475aebdd43e70a1fe5b39cc8b2433cb089d6b2b67f2b1494d1e440",
    ("meixner-eq16", 1, 2): "9c4352d49b02da3d02561981e2f53126cfb127b3ff000076a6ea22680c7e7c50",
    ("meixner-eq16", 2, 1): "93d93d748ee2bbea82ab694b5fdd7d8d5f0595f4734ddb0ce155e4e7293db90c",
    ("meixner-eq16", 2, 3): "4be70efee939d9457251774053d35fac461fe37f5c2c79aadbd4329d47cc140e",
    ("meixner-eq16", 3, 2): "185127f055c4a139ea8b26f13f41294b1f99e292266a70b15b0884b400a28e59",
    ("meixner-eq16", 3, 4): "06cb02e515813d1d4fe0f6abb1eb2c4e803ba2c6e5f8a8f8e9a400b924bb58b6",
    ("meixner-eq21", 2, 1): "a569e9366806c40814b65c4ea28c98de7ccbc19ff04715d9ba5d526855d4641e",
    ("meixner-eq21", 2, 3): "0085060d990e77ede3e2c33c92663de8ad03c3dc6acbc99d399df249c5d73873",
    ("meixner-eq21", 3, 2): "ef297b939f782be89a6c02e6ad77d851f979d5c2c9e837a6444e011dfed1c910",
    ("meixner-eq21", 3, 4): "d8036d364eb379bd6f1babc86b3fa82889466f9acd7d0febbed2c3747a60e3e0",
}

# sha256 of verify --order 20 on a couple file; every report is a failing one
IRREGULAR_COUPLE_DIGESTS = [
    ({"d": 1, "gamma": ["1/2", "15/2"], "sigma": ["2", "-1/3", "3/2"]},
     "c997dbfd1141169a4e3cda6b1c7253ddf25c56e5ab76a6e293d05643a3b7b306"),
    ({"d": 2, "gamma": ["1", "-1/2", "-7/3"], "sigma": ["-3/2", "1", "0", "-1/3"]},
     "99b19e34ff9ecf21b9383f2ec2fbe479cdba8731d31087f6640096a22efb003d"),
    ({"d": 3, "gamma": ["0", "1", "-2/3", "6"], "sigma": ["1", "1/2", "-1", "0", "1/2"]},
     "175deec6cf424ab09748e3b96ed55925f9d6b6375a0d1be095247c9c45559717"),
]


def family_argv(spec) -> list[str]:
    argv = ["--family", spec.family, "--d", str(spec.d)]
    for key, value in spec.params.items():
        argv += ["--param", f"{key}={value}"]
    if spec.aux is not None:
        argv += ["--aux", ",".join(str(a) for a in spec.aux)]
    return argv


def verify_digest(argv, out) -> tuple[int, str]:
    code = main(["verify", *argv, "--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def test_check_d_reports_of_every_sample_match_their_digests(tmp_path):
    runs = {}
    for spec in catalog.default_sample_specs():
        for check_d in (spec.d - 1, spec.d + 1):
            if check_d >= 1:
                key = (spec.family, spec.d, check_d)
                runs[key] = verify_digest(
                    [*family_argv(spec), "--order", "12", "--check-d", str(check_d)],
                    tmp_path / "report.json")
    assert runs == {key: (1, digest) for key, digest in CHECK_D_DIGESTS.items()}


def test_irregular_couple_reports_match_their_digests(tmp_path):
    for doc, digest in IRREGULAR_COUPLE_DIGESTS:
        path = tmp_path / f"couple-{doc['d']}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert verify_digest(["--couple-file", str(path), "--order", "20"], out) \
            == (1, digest), doc
        report = json.loads(out.read_text())
        assert report["orthogonality"]["details"]["failures"], doc
