"""Pinned CLI output: the SHA-256 of (exit code, ``--format json`` stdout).

Performance work on the engine must not change what it prints.  Each case
runs ``npvset.cli.main`` in process and hashes ``"<exit code>\\n<stdout>"``.
M9 runs only ``tree`` and ``valueset``; its ``verify`` takes seconds and
``tests/test_cli.py`` runs it already.

After an intended output change, print the new table with

    PYTHONPATH=src python tests/test_golden_output.py

and say in the change why the output moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from typing import Dict, List, Tuple

import pytest

from npvset.cli import main

from conftest import CORPUS_TEXT, M9_TEXT, STRESS_TEXT

COMMANDS = {
    "tree": ["tree"],
    "valueset": ["valueset"],
    "verify": ["verify"],
    "branchesP": ["branches", "--which", "P"],
    "branchesQ": ["branches", "--which", "Q"],
}


def _cases() -> List[Tuple[str, str, List[str]]]:
    cases = []
    for name, text in {**CORPUS_TEXT, **STRESS_TEXT}.items():
        for cmd, args in COMMANDS.items():
            cases.append((f"{name}-{cmd}", text, args))
    for cmd in ("tree", "valueset"):
        cases.append((f"M9-{cmd}", M9_TEXT, COMMANDS[cmd]))
    return cases


CASES = _cases()


def output_digest(text: str, args: List[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--map", text, *args, "--format", "json"])
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


GOLDEN: Dict[str, str] = {
    "F1-tree": "64731a5ef3eaf24edc387c3559d41d1a40ee0034b5f15285b59e4c8b779c6fe8",
    "F1-valueset": "f3c873190c011e3c85477e32dc05b070d89a46b564810e36b6cf9d9cdda9e3cd",
    "F1-verify": "72f44878c11a1f975543cb6cb5400f95d5c4467add4257b90e0377505b8f02c9",
    "F1-branchesP": "e81a7f2be73310b6a4483aba138154e0e19c896597f71118c190750ce91ac4a4",
    "F1-branchesQ": "de884cd506a780ef3ca5379284b33bb8a19cfd01f976ddc332b01e38ba0dc3f2",
    "F2-tree": "496a9dd76a91fa307b35ab52b25b6eb54c1f928cb512fb9231e8b0baf02d9af4",
    "F2-valueset": "1cd9ecf8976e8895b70fa39d7e2f9f62b7737109dd1a8d1f07eebe20f328f972",
    "F2-verify": "21fcf3efc8ce09e07da600875d879e89d5655b5c0f0df6cd51a7256303ac32cd",
    "F2-branchesP": "798ba49057ebc5ae59ffa3dee91dfb3af1141bff902193d1725a4ba6bc0e999d",
    "F2-branchesQ": "af0e9e4e26c9c15fe6a74b2c1ec5dd014496fbff03d9199f8661e551ec4d7176",
    "F2T-tree": "fc6a01db857bd4f807619866a821c8181b474d6cddadde3346b15bbb2f0b9da0",
    "F2T-valueset": "cdb83b83051560ca4127f99788f120d397786fc98e6be65852649b994d24bc70",
    "F2T-verify": "882e76975972c6cae645fea0b81775be8f028469b190bea66d9b09f8987f5ea7",
    "F2T-branchesP": "0903c17ad099e3859ae2f476df874f77cea05f19b9257e6725fd48e7fb73c76d",
    "F2T-branchesQ": "36ef7dc44dd0dde4abff2f122555b2ce09fef1328a902ec03f1c4b586851def9",
    "F3p-tree": "ab5f6caeac61a8da512dce9239d01fe1899e769c49447140dde89943099dab56",
    "F3p-valueset": "259cfca905b60706cb2496e2fca4e020b781c36e213b8c4f63888a1089053ddc",
    "F3p-verify": "ad611aad2dae55afd4d462c15efc255d4b70afeb3c94e7b2842407fc011f50a2",
    "F3p-branchesP": "2647796f224bfe2c0da23fa428e8c9de1a6659c883ec1578e32ba675e4c34c30",
    "F3p-branchesQ": "23af2df640c0b03d43a89e38b80c00f3c07ee4f602caf43b223b495dea524204",
    "F5-tree": "14fbb953755de1d5f28f822c763a92c9c3816a26f93096e81b9b339efe525de5",
    "F5-valueset": "23ef203d7dddfb6593ba0037e82c6b1739ad27ec650938944a1e71e6dc6a099b",
    "F5-verify": "bdf60d30986fd6fb62aad7c0a491764932e7a5956ac72636c540276038228c52",
    "F5-branchesP": "d4a19ab3a3adca46a90a951a720d5ec23f851339f94cc39d1bf473915225aaf6",
    "F5-branchesQ": "2927b465465cf73bcc560653ec74de3bf9028455090176a433424ec847e672b8",
    "R1-tree": "87b99867aac20cc0ad165dd0fc3285caf0998019e78858b06e8f39a67cf02531",
    "R1-valueset": "005b9ace6a12ca47657318fc9c1cd6ead6dedadc44dc4d82db37008bff04a609",
    "R1-verify": "b6d63dfa47d32f90acebbaa76aea9f2f4796e0d513a1c2c635f738010e3cee63",
    "R1-branchesP": "7774c21509f84a9749dde11bdb06ffe41a57bceecabc6cd73bb20580fd6a312e",
    "R1-branchesQ": "3f86f660c7df868e09a4ec169a3d29b506bb82c1053b2a0322d0a9a5bb65fafb",
    "R2-tree": "b35cfa78351af7f9a9f7c5de958dcfb72e1c0664fe0a05afa1fb5c947d618b3f",
    "R2-valueset": "6adc81c8af0b6e79f3ee635a60acd5b9c18824ba75e38d7281718c3bc7e977f1",
    "R2-verify": "dab1404f3d5968269662d0bbe230d45141e7d8137ed845fd0ca9aa09d4255685",
    "R2-branchesP": "17dc8ddb947fb0b8a724e41a49339ab135c1f56d48208cf5224db2c2ef0bfb1d",
    "R2-branchesQ": "8bec742fe44edf63ee09ae0a27b5bcfb296d9af8da0bfd414d16e9c67433ebe9",
    "R3-tree": "9058c632fd12f2dc60bae0be124d88f0c338390b44f6bf03e0127c664cb43cde",
    "R3-valueset": "ba158895325aca630feb81dbffe7a9d96556f0e3dc8c38e1c8ba0795bae1e390",
    "R3-verify": "f8fe0924cca414070550724cd4c1af0deb2dfc10e8513ef7cba6370609840a95",
    "R3-branchesP": "a7af1d171e6c5506dbd1e1775c84e191916ff8b98e834e9f20f61bfa737cd569",
    "R3-branchesQ": "d057f0b944cfa6a72bfa3331b12745739c64c8652147552f7eb7ae47de9cbd7e",
    "R4-tree": "b9b9f9ecddc78aa7b778ec5117f9f48d907d6a74bff8680562af4a8bd7f41e6a",
    "R4-valueset": "8e64734f78790a7cf8c059c6adbe8e71b0fc25f583480a508f8d2c3a43ccf88d",
    "R4-verify": "fb0eb20ef2e0c0d97d8b9def16471173a80b084c104c8108d31237ea0b67fad1",
    "R4-branchesP": "a9d40858891e3ac5118c3915dfbe604059352c2361aba282cfa126888edf0278",
    "R4-branchesQ": "f61489f6c5e106630b5c877f401fadb9beecfc15f9c7b95804078558c6d63bc4",
    "R5-tree": "3ea7176a305fc643f732a8fbfbd77d322cc3f762b9bb1e3651d6852a25672be9",
    "R5-valueset": "516692a80013650b6424bb30371ecdbb7809c2bb971c03bfe2917883e8d2d4a2",
    "R5-verify": "9092b745dd12f9be28b9dec589bc8bac91053e5689906d5b1e55dc2e77bd7893",
    "R5-branchesP": "1b91bb5cfa81cb4fc1edf08f795cbbf393cd927726fdfc0412bc55c585eb5535",
    "R5-branchesQ": "5800865578361333ed6bcd15fe7d9ebb965e54537ad3d7892d79dd9e541105d0",
    "R6-tree": "ee9e99cb69b6f5bc17aa8da5b4777e0b8e68ec90ae66cb719d325232cc7e3f55",
    "R6-valueset": "1432fa9ad22240408e020308f8d8a1f62f5f92f3d6f5b4c229b681c5a721b4e6",
    "R6-verify": "462617597a0cdcdf8ac62d522f7c21188d29af03714d4f8d224003b66a67a88a",
    "R6-branchesP": "877e9c40cf1c425d78b25f40f79e6241f36c83b5847a1542b2b139811311274d",
    "R6-branchesQ": "d352ccfb92c730587eae1070e5465f52c797993571b0c1915ad2d112e4de55fe",
    "M4-tree": "6b148eb3dfeb395f022f27a5028e812d6b997edce353db2b0268910c9674c18b",
    "M4-valueset": "6c3c1b72fd2e7d63f2a7abea7da21b90bba4fd1c2ee94c8bceb34ab8f4cc43be",
    "M4-verify": "85587615de41cf818f4957db8082a0464cca699332cde39695a70aa789af030a",
    "M4-branchesP": "0755160e40602bc9fc29559858de1940a722ffba2659eacaa06f04d7cc29f076",
    "M4-branchesQ": "50bc1022b1410da2a308f9f26290f827cf098f8420171fc971ff2a51e035562d",
    "M6-tree": "6c110e53507ab745c32146e50b92b249c6aff2e73fd20c727e51e0823b9fd8b8",
    "M6-valueset": "f1668b132eab3f5d9ed62e48202f858e6e508583dd1859be369d5289cb3cb8ab",
    "M6-verify": "e677b88b6480bfa7d93dd9b903c041787e7e69949bd60afd957210f9154d41fe",
    "M6-branchesP": "136616a511159b3119ed2415be2054292a6aefb61672a545d60f68cf22148e61",
    "M6-branchesQ": "b96b45b2863a4babf309c5d769f73dc0ea77d14c43a8498dcb4b7cf13593bbcb",
    "M8-tree": "8e58ba23e0c7b495be2748ce0b020dd7a66e46936cad09eb4644d64c2b3cca9c",
    "M8-valueset": "31a31b65d259f927883ccefd6cda390aa290f8170fc52ffab67e090cfb621d78",
    "M8-verify": "917603bc64290f4c6dd0e295bd3319bb31ad44357851b2ea89ab8c3b08a6bdd6",
    "M8-branchesP": "1faadd2546d6e044b7505d92f6979a52c6c78c31fed4d7eccafdc748e0eef56a",
    "M8-branchesQ": "bea120ea70aec29e2c7e67e19b92357b2b19b3e22d07565fa3ddc48d55a69bfd",
    "M9-tree": "f1f857f290c46102eab7e19b2c4268d7b2c994a7ff991145146c7a27e76f2a50",
    "M9-valueset": "5c535cf04fa7465b72bdd86afc3d8783a61819e8a34424beff44d08532f42dfc",
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(case for case, _, _ in CASES)


@pytest.mark.parametrize("case,text,args", CASES, ids=[c for c, _, _ in CASES])
def test_output_digest(case, text, args):
    assert output_digest(text, args) == GOLDEN[case]


if __name__ == "__main__":
    for case, text, args in CASES:
        print(f'    "{case}": "{output_digest(text, args)}",')
