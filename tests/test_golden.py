"""Pinned SHA-256 digests of every serialized builtin.

The digests were taken from the canonical text of each builtin, and of
the human report of one rescaled fusion ring; a change to any
construction, rescaling or emitter that moves a single byte of them
fails here.
"""

import hashlib

import pytest

import hyperkit as hk
from hyperkit.cli import main

SERIALIZERS = {
    "hypergroup": (hk.builtin_hypergroups, hk.serialize_hypergroup),
    "fusion": (hk.builtin_fusion_rings, hk.serialize_fusion_ring),
    "group": (hk.builtin_groups, hk.serialize_group),
    "groupoid": (hk.builtin_groupoids, hk.serialize_groupoid),
}

DIGESTS = {
    ("hypergroup", "conj-s3"): "4ad05a19b9a86b2f75f739330a6a775c0ba1b5da826192bd8881199207616d84",
    ("hypergroup", "fibonacci-rescaled"): "25d11be2e0f32b3d26388d36e635019cae09b73680e6073b229ae49577e8503f",
    ("hypergroup", "ghj"): "29e04b7c6450bac2b19355ae4036f08c7e3b0c9b6e76a4ceaba07fa154605fea",
    ("hypergroup", "ising-rescaled"): "6308d7c748c9911e2476fc7d402d48ac0113f42523d7c268a0db879582fea99b",
    ("hypergroup", "s3-double-coset"): "d603decd4b80f69764b7e2098008d2d9cd5d01555ce5d38b9fa783ce4b9adf7a",
    ("hypergroup", "s3-group"): "ee2abd33c8969192201d9737c6cfb65f8263a3ca9ab2dc61c7e98156fb8491f4",
    ("hypergroup", "z2"): "6d36643c93606721d3fb53ecf99138fe67362ae4454245a7542e6cc7987be443",
    ("hypergroup", "z3"): "4d51a78e0bdaad9cb29325b4c92a71f11ef157ed2d7ff85f62dcdc45073e64a9",
    ("fusion", "fibonacci"): "4df679f01231b2d7dd1853cf92ad4b79605aec6a77d3660bdb3b69932fbd4fd5",
    ("fusion", "ising"): "e1efad4c5a3692b06da14ed8caf6819c72b57de01ca00cbcec5988cd4d67eaf9",
    ("fusion", "s3-irreps"): "a10af254e1381b5ad1f11e699077432ef2171a51d22b82921c62e6bd1fa6f8a2",
    ("group", "d4"): "4d2afe88018c521a6ac03e9e35b54bd2527ea00f4f370c940f51fa42285300a8",
    ("group", "q8"): "d0e04ef47f46c90ca0e91087b40f8aff17cf4f9d2dbe266304168ef589206c2b",
    ("group", "s3"): "34d224b1e0c640c1edd7ae5b0ab34c676cd48e8d6b84833edefa91775ac0fd46",
    ("group", "s4"): "8e4944c85a7756eef7afb010401733942bb3f0898a21d6043771aef0fc2fe8a3",
    ("group", "z10"): "e723c7bec859ed5f3ff17ac5454fb02c1e6a302451ba46e16dfd1d73e1017202",
    ("group", "z11"): "c77b52fe521e0c770027993c1e5ade268dc063b1d71dd4d6af5f20c32e2ff3ef",
    ("group", "z12"): "42af2f7e590841f5740d443b84184d84359e853601242ec1282c0b457505c2bb",
    ("group", "z2"): "324a792e90886ad27071731f83bab95dd5adb9d96d8e4647b77b939087ab9eb0",
    ("group", "z3"): "c8669465952b4370e604f9d93aba504b257efe808749a1bfb0fbdf5ee6f32f4b",
    ("group", "z4"): "449f80ca4c0361c7f7d432bc27d3cfb9339936ebc3ba6f7bd046789bfa7a9292",
    ("group", "z5"): "c5b4997a8a906c7489dd24dc66d6e862b65a7f3917a518991469a72ab320fff2",
    ("group", "z6"): "b765e13d80e7617945c873eafef229a22e5bb1a0ed78ea4b20cce38e2a7fee89",
    ("group", "z7"): "345169f240359a20ce7191cac6136a1906bcd5f56138bb9542667923ad1d1693",
    ("group", "z8"): "d1aab785f245654bdab2e9e7757a7c2f72ba54516aa2d814726eac6384e7d0df",
    ("group", "z9"): "7df82c0e4cdc526f15861b545526543907e1ccd7dad0b8f469e2ee9b47e61ccb",
    ("groupoid", "conj-s3"): "b77e67f698c2fca9a809f04cbe54211bbb6a9dee4ba279d07a3db12bce079a40",
    ("groupoid", "ghj"): "212d0e002e00f8ef4e1e5bd212206c9210cd8bd6c982387e803a24277b883aa9",
    ("groupoid", "ising"): "5c08a3ba6179c3303ad229df874a472ad91fafa7903d4f88df5c2a456626bc54",
    ("groupoid", "two-object"): "c27700a6b404c3f8e9e8371f4d40bcdf32bd773373ad536465accc00ce8f6120",
}


def test_every_builtin_is_pinned():
    names = {(kind, name) for kind, (builtins, _) in SERIALIZERS.items() for name in builtins()}
    assert names == set(DIGESTS)


@pytest.mark.parametrize("kind, name", sorted(DIGESTS))
def test_serialized_builtin_digest(kind, name):
    builtins, serialize = SERIALIZERS[kind]
    text = serialize(builtins()[name])
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[kind, name]


def test_rescaled_fusion_ring_human_report(capsys):
    assert main(["build", "fusion", "--builtin", "s3-irreps"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "62d2c0ba8f3a631fc99510c3d77c34fcfd6243bae944805a4e1c5281920f086a"
