"""Pinned CLI output: the SHA-256 of (exit code, stdout).

Performance work on the engine must not change what it prints.  Each case
runs ``npvset.cli.main`` in process and hashes ``"<exit code>\\n<stdout>"``.
The cases are every command in ``--format json`` on the corpus and stress
maps, each single ``verify --what`` check, ``--format text`` of each
command, and the ``--help`` text of the parser and of each subcommand.
M9 runs ``tree``, ``valueset`` and both ``branches``; its ``verify`` takes
seconds and ``tests/test_cli.py`` runs it already.  The degree-12 maps run
``tree``, ``valueset``, ``verify`` and both ``branches``: their windows
reach multiplicities above 2, their unsplit notes are cyclotomic and
sextic factors, and the chains of D12 and Z12 run the exponent recurrence
of lemma 2 and eq. 9.  M9's P is a cube, so each of its edges takes the
multiple-root recursion of the branch search, and seven of these twelve
branch searches stop on an edge factor that does not split over Q(i).

After an intended output change, print the new table with

    PYTHONPATH=src python tests/test_golden_output.py

and say in the change why the output moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from typing import Dict, List, Tuple

import pytest

from npvset.cli import main

from conftest import CORPUS_TEXT, DEGREE12_TEXT, M9_TEXT, STRESS_TEXT

COMMANDS = {
    "tree": ["tree"],
    "valueset": ["valueset"],
    "verify": ["verify"],
    "branchesP": ["branches", "--which", "P"],
    "branchesQ": ["branches", "--which", "Q"],
}
CHECK_NAMES = (
    "theorem1", "theorem2", "lemma2", "lemma3", "lemma4", "eq4", "eq9",
    "section5", "factorization",
)
SUBCOMMANDS = {
    "branches": ["branches"],
    "tree": ["tree"],
    "classify": ["classify", "--series", "-x + s*x^(-1)"],
    "valueset": ["valueset"],
    "verify": ["verify"],
    "oracle": ["oracle"],
}


def _cases() -> List[Tuple[str, List[str]]]:
    maps = {**CORPUS_TEXT, **STRESS_TEXT}
    cases = []
    for name, text in maps.items():
        for cmd, args in COMMANDS.items():
            cases.append((f"{name}-{cmd}", ["--map", text, *args, "--format", "json"]))
    for name, text in {"M9": M9_TEXT, **DEGREE12_TEXT}.items():
        cmds = ("tree", "valueset", "branchesP", "branchesQ")
        if name != "M9":
            cmds += ("verify",)
        for cmd in cmds:
            cases.append((f"{name}-{cmd}", ["--map", text, *COMMANDS[cmd], "--format", "json"]))
    for name, text in maps.items():
        for check in CHECK_NAMES:
            argv = ["--map", text, "verify", "--what", check, "--format", "json"]
            cases.append((f"{name}-verify-{check}", argv))
    for name in ("F2", "M6"):
        for cmd, args in SUBCOMMANDS.items():
            if cmd != "classify" or name == "F2":
                argv = ["--map", maps[name], *args, "--format", "text"]
                cases.append((f"{name}-text-{cmd}", argv))
    cases.append(("help", ["--help"]))
    for cmd in SUBCOMMANDS:
        cases.append((f"help-{cmd}", ["--map", "x+y; y", cmd, "--help"]))
    return cases


CASES = _cases()


def output_digest(argv: List[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
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
    "M6-verify": "fe1c8b3a1fa25c1187d0da400a095f687321bcea3cd5dc756300b69153c9142a",
    "M6-branchesP": "136616a511159b3119ed2415be2054292a6aefb61672a545d60f68cf22148e61",
    "M6-branchesQ": "b96b45b2863a4babf309c5d769f73dc0ea77d14c43a8498dcb4b7cf13593bbcb",
    "M8-tree": "8e58ba23e0c7b495be2748ce0b020dd7a66e46936cad09eb4644d64c2b3cca9c",
    "M8-valueset": "31a31b65d259f927883ccefd6cda390aa290f8170fc52ffab67e090cfb621d78",
    "M8-verify": "917603bc64290f4c6dd0e295bd3319bb31ad44357851b2ea89ab8c3b08a6bdd6",
    "M8-branchesP": "1faadd2546d6e044b7505d92f6979a52c6c78c31fed4d7eccafdc748e0eef56a",
    "M8-branchesQ": "bea120ea70aec29e2c7e67e19b92357b2b19b3e22d07565fa3ddc48d55a69bfd",
    "M9-tree": "f1f857f290c46102eab7e19b2c4268d7b2c994a7ff991145146c7a27e76f2a50",
    "M9-valueset": "5c535cf04fa7465b72bdd86afc3d8783a61819e8a34424beff44d08532f42dfc",
    "M9-branchesP": "aa3283c6198460e764f7e43425b359ec5d87db17614a47cc820316805a369b96",
    "M9-branchesQ": "0f17c5bb313ad3a1091853692813ca3e8ccc4074d2debb9732830faf2a4dd890",
    "D12-tree": "bb273b207087135c2bedd66e7c9d7a7f52ea32df2991b80b3aa2bd9d0736c56e",
    "D12-valueset": "27b26efb176b8f7d963d66b9f2ee13a2420ef593cdfb12110ddf536f32c53379",
    "D12-branchesP": "1148f111bd1cb22214849deb7d4c33cf14a737e41427dbe995920355fc0d95b2",
    "D12-branchesQ": "dfb9ddc6bc2629122c23b731ce261e93dd322b0a77953cef9c51a6f7e4fefb96",
    "D12-verify": "e1640da11f15e08c94221c45348ec59a418116e5dd0a3c12f56f2bff94299258",
    "T12-tree": "e86c7ff29bc3cf3cf292b319fa55e2b1e63e8d41fa19a0025138f368cd77e9a5",
    "T12-valueset": "1a7fd7104076939c6f5b9b9512132bf7e591c32f2d50d33a35c706ebd27188d8",
    "T12-branchesP": "4adb1b99a96f2d5fcf01d63044edaa93417f25e56d4dfc9291673859ab7173d2",
    "T12-branchesQ": "bd43c242191ce30b3f4f384b8684cb1b52f5b5859cedfb5ea0a6f5988353397b",
    "T12-verify": "f6af83c4f1f8bb6e68d7958d805f8a60164f2c1cc73d980c4a67db49f5894af1",
    "S12-tree": "1cd89528f938f5bb5713e5efce2b3a9d055a8932932cf68c3c75f4b6049c1055",
    "S12-valueset": "89639b7a630e8e1a8f7726de6accd9c695f80c519a319654bcb3a37b059d3e33",
    "S12-branchesP": "6da0aa0998f9e290353b9d0b98c2b0ae7be3be133b02519febc6fe9a6ce3ffdf",
    "S12-branchesQ": "b1b4e3d0b065bad4ef1432427084e6cb096e5b523c8aacf9a9097462556d4a76",
    "S12-verify": "ddfc796e0e21917b09ca5beabeb9487d782c665697094a3a6ea685ce46e7f38b",
    "C12-tree": "8015189f4909370dcc319660d315dfe8ff8c6701e9d0702279f57d5213c342c2",
    "C12-valueset": "1982951511d8cbc3f77024155a4eef9fa3799fef220b6495c4f2e3e195860647",
    "C12-branchesP": "ae34c6e7790a2f7b36f6c7ecf2301f6d5c817685e045c505891389d10c0d9a5d",
    "C12-branchesQ": "798136a2759cd402e7e587bd03a929a6cbd32d3a0e3b38f909bff93f99820e8d",
    "C12-verify": "74e02f7f72f58e14ffdc7109474c92339325bacedc1b1d299da7e90f44950139",
    "Z12-tree": "183f518183128b3d8fa895643dad1a4dbba82ce5843725ea3580a1e27d816cf0",
    "Z12-valueset": "dd62f06dc9fbdb1dac5980f361b1d152c38e879a5f8cb9432826c534bb666e67",
    "Z12-branchesP": "dbd6d81e0c8cdef5f2d692a06e19daa44bf3d17ba960d5e05b1b6a867fe519cd",
    "Z12-branchesQ": "48bf33444ebb7ceda43e824104216432cd69c85a9fff272b83d5988d27fc460a",
    "Z12-verify": "89aad40a5335e70346d3db45f8fb76c4fe866df34a052ddfa5d843bf390b8298",
    "F1-verify-theorem1": "e82dba222cf5668f85fed331043b5f3aa8547eee178be0ae36303699f4c6d2a7",
    "F1-verify-theorem2": "3235416fa9a5c3fcd43759a66561aff474ae9fadd08a3d5580f1ac6637a1a8cd",
    "F1-verify-lemma2": "1bf816298e31b98b14fb56aded4f1c4ef19ef376bb3ee35b1bbadb045e82f622",
    "F1-verify-lemma3": "cd91902789ed88ffb2c4052a2a8f517dc2816efc93c1d27c6d31c900f8446930",
    "F1-verify-lemma4": "28f70ac49cc66d426e9e19c1ff243fda1d9605f7d064ed65563f03db0f0e1871",
    "F1-verify-eq4": "36985fcb8bb1df386acc56cd7fb69a13c8703cd7ab906cbdd09509659d9c5dfb",
    "F1-verify-eq9": "249c14be88dd32f48faedf6593e7ad5788a929e85a57a8668372a87971b2aaac",
    "F1-verify-section5": "7f45e57c9187db39d12ab03371129ad62056a12ad1580e570e3cc38d0f5aa802",
    "F1-verify-factorization": "0daa4f2e0b142ce12306f1f05b74e55105813b59a31c79a265467133052e63fd",
    "F2-verify-theorem1": "bd3ad4077d32304d9b3c39756e734eee9295c96854bfcd1326e0b7cf810ae93c",
    "F2-verify-theorem2": "be5bd55a5d0b2f80044e9146afbca5246360cd36386642005fc8da31a7d7fa2b",
    "F2-verify-lemma2": "34ffc70574e35ee781ff44fdaedfe54036c2969721e06623aff0ba1eb89a2e7a",
    "F2-verify-lemma3": "43ab2ab55ed82a3fa223c7b3fd872038bd97a7ce75d5e0f16bddb2f3afdbd1e4",
    "F2-verify-lemma4": "82607f93c2829a15cb6d8a6da2d43f40bf87680cf566017cea7e783c227bf6f5",
    "F2-verify-eq4": "146d8db82f96f91cfb85e068626cbafddb16b26bd93347482356810ebc5074f3",
    "F2-verify-eq9": "84b98cb2af7279a65d34cb0545f2e08cbea51fd3eeca831c2cd6a405aed629b7",
    "F2-verify-section5": "0dbd5b6415f6a75a54a4fe7d7beba347795747fa3dfbdb311f897ac641869864",
    "F2-verify-factorization": "03b43b97597890d6b1d93fc4f1c7c7fa1da3a38943e1177cfacbd4db0f8a769c",
    "F2T-verify-theorem1": "6fa39416a96bb7cb1807b7e023909d795a876648c0729eb43f5b00a9bbe724a8",
    "F2T-verify-theorem2": "1c867c57ffb5d936fcdf589bddbc31c8e3a5dca54206c5b187c27f87045264d2",
    "F2T-verify-lemma2": "cc79af52b133b1c3df4c17ef09228a30d1cc2f85428be526c21e909a8a42add5",
    "F2T-verify-lemma3": "33eed6775b685872c44670b3035163f35907ab3885e4b70e0043df62bc6f88aa",
    "F2T-verify-lemma4": "ab795e6ee242e9158a23aa32ab1b1bb476de07bef51c905e1786690c2f977193",
    "F2T-verify-eq4": "9e7061fd325991250b4f633b5726bddea56e6723310a0db0e567beed833bd25c",
    "F2T-verify-eq9": "681770535e05888ec6317cbc76adc6559b363cb504d3a2236421745251019fa5",
    "F2T-verify-section5": "9acd58437d37a88b073fc5bd3572ed634d2b9866a19f821235c0224e019f44c9",
    "F2T-verify-factorization": "fafb9828b493219df678f5f554197a6218db6941eb619868d9ee047f86b73854",
    "F3p-verify-theorem1": "c95d88dbef5dfc0e171af5710f349aba362e32329b05e47f75aeb1a81c523d60",
    "F3p-verify-theorem2": "9cd20b01ae1d9433c9dc8248d2ba8e2bfe35c3aca433766b004ecdb97f3d80c9",
    "F3p-verify-lemma2": "44351b8937413e4c813bee5bcb96981b22dc33a4a5fc19a23397aeca5822267a",
    "F3p-verify-lemma3": "3850fdb374fae695493fe1017b911ad805afbb7ede652f7a7d52f4957d538085",
    "F3p-verify-lemma4": "0faed80de6a172a3ffa4d154787b11257c32e163d5bc98ede740d09f8f151d90",
    "F3p-verify-eq4": "a137612b15715afb423609a460cf8a60b9cc70d081ae9968643f7ca12f80cbce",
    "F3p-verify-eq9": "82b0e936f45a1dd01e1e65bfadf431dd7514d0528690a04b86e20386112a9490",
    "F3p-verify-section5": "586d8d0e8c63724ce60df1954c8f47c7106f66385f65d87a437ad3af7f1d3511",
    "F3p-verify-factorization": "186cd0b77919abf8479a481ab9c021e958eb2ccafd1ca0858ed21cc7c1153b69",
    "F5-verify-theorem1": "a077ac70c7e41e8833df8b53f94e150f3eee74503cafcba82d138746d2c31c1a",
    "F5-verify-theorem2": "18148fd8d919a0d3139d9747ca1d443d3a32794947b07976ea8a6a97566a380b",
    "F5-verify-lemma2": "42c556c663c45e21de2727db3bb20136298f7bb91c97733296adc45cd23abfc2",
    "F5-verify-lemma3": "f3d04c5b322f3fd467e2c75d347876b97d62501a13930b19ef61f32852b6e587",
    "F5-verify-lemma4": "6335b7ce6392bed4362ee2c0bbef022fbff241139a7737c23de5166fdb3dc5f7",
    "F5-verify-eq4": "f49bd4043bfb5a1cefa7dd6ef99cc269e16559ba96684b159d28c61a8d0d3e16",
    "F5-verify-eq9": "0170fdb20b198f8cab426abf3f812263c34b3d90dd27b131fd1f9b88fabf0c0e",
    "F5-verify-section5": "c88430edca439d05819e26485f97565257713df06956d3658008874d621a0185",
    "F5-verify-factorization": "e33120eb0b7e3d0b3c89dbec8b7cefd389ac6a67c2e09aae89798de93dfc059d",
    "R1-verify-theorem1": "12a039d0c82b79ab3d000e6ed354fdaf2e43088fc0149b8a7c3ed91a3a6b755b",
    "R1-verify-theorem2": "8ed0849aba5f5d0352ac3c68bcd97c60d66eb272299d76c3761812a0bf0ea807",
    "R1-verify-lemma2": "63593a6f9052dea0b4984c6a09925fdcff1934f60d93eff10e13ff619e95f088",
    "R1-verify-lemma3": "7a365f9078bfaf6d73b7b509b176044330c049a6dfdbd75d3edef800b38fd073",
    "R1-verify-lemma4": "dacfbecfdaa215616ea21be3d82fb57e678b4f099b1d1592802a5d67c737af0b",
    "R1-verify-eq4": "32eab7614af6270d8f3dab8116807bea946e4ccb41887da73c8e5b3679641999",
    "R1-verify-eq9": "815a2512a5a81ff1dcd6d42dba0515ffbf537574be0255bd6f7ff35a881801a4",
    "R1-verify-section5": "8389428070cd150294f1df09b199d67ee6043f3458e7b2f94c48087725818e5e",
    "R1-verify-factorization": "10c0926f1d15ef3a95fcaf8a57c1863f96546eee3bb0230a33739cedd634b79b",
    "R2-verify-theorem1": "a9548c099a1238ab1cb6715c12da0691ddf99b6ec0f2a70c11cb139bc6abd628",
    "R2-verify-theorem2": "4d3b8342da00104ded7b09b65ed0fdd06e0d15949d2a44c143cd21d681bd3d04",
    "R2-verify-lemma2": "a6e601034bf191e1d4d7395489a2d689e1de89ea35534eb89795712e4a3f382c",
    "R2-verify-lemma3": "612538bfd742defc442d9235fd639f5d38623aa044138b3b4ce886f9628ff028",
    "R2-verify-lemma4": "0781caca5175f4d1824149a57db87fb797918e4c52528d4e1d747064e4681c02",
    "R2-verify-eq4": "667e20e1bd4fbb8fee44d1e6d929644e943bb0aa81b49e49df5e3268167bd348",
    "R2-verify-eq9": "77a4ec73f52b6fc6adb6ac280396022dcdd19d8482c8384de92f13c1d60abd7d",
    "R2-verify-section5": "fe0785a82b7fff4f1a07a97479906223344ff9b7dd226856277fc5dc5c03faa7",
    "R2-verify-factorization": "b5c2b28d229b609bf47db6216a38c42edb6212cdda48ce677b604c5dcf8e1b91",
    "R3-verify-theorem1": "962ba6830598cefe92c01b024a2e4dc77a4d8e013adf90e3916cde3651d4a09b",
    "R3-verify-theorem2": "bad93f090e76695f4a2fe5794f78c6dcdea66165c5f1445c483539428a06bc86",
    "R3-verify-lemma2": "01fadc73e81e671171845440f8579f07f1689e0671c1011a43534094edf1b288",
    "R3-verify-lemma3": "5ecbfe8415834e121654e34bc269957ab41a919951a0e04d530d6ba6cb7366c1",
    "R3-verify-lemma4": "0f3e93fc124f1c32a5f6ed966c3c86b93d6de730e56a8ededf874ea349e2643d",
    "R3-verify-eq4": "2be1b2e6aeb646f65aa3d378f649f38450f528df702aab093f902baa88acd299",
    "R3-verify-eq9": "85144d0fe2a6c8523902949a0958b2ce46d4fd71f41119263ad74819c50139ec",
    "R3-verify-section5": "225784d39004d5b9af94329292d510af06c1cf54418dfd3705dcbe7596ef5ee8",
    "R3-verify-factorization": "add9815a3fb79f406f54e9d761ef0a30f07bbc8f315ac4f55b993e08512614ac",
    "R4-verify-theorem1": "c7960a4be098be254bfda36940e544822c3e68dba50868d62fdf83346714c88a",
    "R4-verify-theorem2": "d3e981fc0d79472255686335362cf1b7d47ca87dda067ea14fec2dd05a5ea4cc",
    "R4-verify-lemma2": "28e2caa6933c638fa34fc770435abf141a7fde3e82561e87b4bbb6edba6ec1de",
    "R4-verify-lemma3": "d790efa2fc01599d2c8c569699ad5516ddbd72da32ab40271012fef488dca039",
    "R4-verify-lemma4": "8f0282f7b7ac941cbc55efd40d481bc983d99fce31deb3467ca8c284d39186e7",
    "R4-verify-eq4": "b5afc1c2fda6afc74e96276cf6dca556db8dee7d5c1bf63c6629ca796fe21a31",
    "R4-verify-eq9": "8ad31fd4be97e4157c3940d54015d279dfe5f8ec184c6dad10233ce53103aae6",
    "R4-verify-section5": "eed723d3c00d152d008aba640691f4264830a98ded40e7cc65b80d492e6e7594",
    "R4-verify-factorization": "b42ede1da3b9b2fcee343438fb6c79e39f68d8c01938997b074a5969c0426248",
    "R5-verify-theorem1": "412e8843677da56662f2aa1c733658f1b2710ad9b271c856bfc66d93ae7e207d",
    "R5-verify-theorem2": "a3766df09205fa00db634dc81e78f9fc7c1b94fc52945439971a524e403cfa38",
    "R5-verify-lemma2": "114372c508cfbc61bca8db8c211648572cb01bc0e497501e81cacd10d07efbda",
    "R5-verify-lemma3": "e4ea84ad72757bc4f95c7812c9ddbe1d705b1993379ff09d625dbceeddb2c7ff",
    "R5-verify-lemma4": "1f8d42b31f79059a718195d516d96946fba620cb03c1685fc2d343aa556200df",
    "R5-verify-eq4": "7771e2a721ed043f85eab73cb61af49c5ca862731a1d84eae4de295b0b860706",
    "R5-verify-eq9": "5d036451566a6cd260bad46c9de5ee9373a0362ce4157266c010a3861ecc151d",
    "R5-verify-section5": "fb7c3c62cb542d82732503dc0b5e5c6deffb2d07cfdd7d3981e83e5ab91a5865",
    "R5-verify-factorization": "05707ceab9ddd08ef20d3aa75effa4fca1ac141362839602f160891bc3413e75",
    "R6-verify-theorem1": "0e20ea9a5862721d3752fe001a4d013ba9d13bc812b70d0defb414f615b917d3",
    "R6-verify-theorem2": "9db6db97fb955a27d6e467d128e9a430ee609cb0159504a0fd2ec2f5674286f9",
    "R6-verify-lemma2": "1fae5b8235407dec9a91016c832be5045b604353e1ad05d98b2572bcae6a05f3",
    "R6-verify-lemma3": "f7aaa5456fc10e2eefb47aa04dc4bfe7c90f38155d86496438e8adafc0e208f3",
    "R6-verify-lemma4": "df5c1b763d326dc382d8231490e014acd7b2ed071944d3e5317a26aa932ca0c6",
    "R6-verify-eq4": "d0d88cd945a5cd83c2be3a325bf765fb7e79c913e06a6581af542388dda0d613",
    "R6-verify-eq9": "0b67ff49b25eb58a2325ea30507b727b812f4ec5d1cfbbd81b784f301957ccd2",
    "R6-verify-section5": "ad0940e606eae51bf5fa142464707bd90b429e35cb95af7103f7fc0dbcc35e39",
    "R6-verify-factorization": "6a3c010dac9b8e953aea213d3b9e05c8393615495689a225a25100932abe51e4",
    "M4-verify-theorem1": "af58dd4343e1038756284e131bb7bb6c3419f4a95dff1ebf5a490cc5a40d1159",
    "M4-verify-theorem2": "196ab92d7fcba72deb99af6e1e89db72e3932539db0d44092bdebf045f943547",
    "M4-verify-lemma2": "e76996c4ebe5d1e258cf3ca6740131f3256bac76e8f0161b875e8013411602ca",
    "M4-verify-lemma3": "55fbee5f3350f94cfd67895103c2b2cdd24748de7634c1d229f06fd170820f1c",
    "M4-verify-lemma4": "e20f187673379240bb39d4724093adf030dec1157eae7e59220df27bd68c433a",
    "M4-verify-eq4": "196465af7f4abae1002d3dd5e45d7ae5cded41170270758f144ed44017355c52",
    "M4-verify-eq9": "1f3b5f782d55ba1dba680009acae6302b65b18bfd9a1d30a14f03aace98e29a3",
    "M4-verify-section5": "828b3bd1a676bc60a35a3bda4698d189fcfe1e3f21831953627b2a6a3b6eb078",
    "M4-verify-factorization": "290ac5347d3c2a13212f8045dc2d73de7db9b573c157bebbfb8d4dd88a2d3bcc",
    "M6-verify-theorem1": "b69c6189c7bf1ec2e00faf2eb92838b5647e1c17ead92fc22bf1cea15e0eb67c",
    "M6-verify-theorem2": "48bc5a716b0deb0048ee6bd81b558de40f3b3fe62816848071042856dd296ace",
    "M6-verify-lemma2": "3843cd78be629c709188b7a892aaff45d141ef4c89503d82c4224ac1b4b6a95e",
    "M6-verify-lemma3": "6fb49a31f30b2a6553fc92ed5f7c369890eb58cbc248e86ce767284826b9d96a",
    "M6-verify-lemma4": "7251cbdf2fee0362d25a68acbef87d99ac15bb43c14979963693cdca75e9a612",
    "M6-verify-eq4": "a9f02da78e0676cfdea29415bf2b6e19eb9350dc53ab5b6bff703c3a1a9a0760",
    "M6-verify-eq9": "f489a2873f98714bc1105cf71f0009aaaf3b291751c627ff383cbc7c98aa8d9c",
    "M6-verify-section5": "62bca16f86ad8e2c3a5e21c307bd0c1b8c0a791a9791c2fb215c3c5f69ce5796",
    "M6-verify-factorization": "500be69d5deaec4e9f92591e1dbd7a8c5a64e7781151b6e902526d71a0c68e0a",
    "M8-verify-theorem1": "4bd309c94d67667a613822fa763750af8c0652bc7959e5bbea03ad45c271437f",
    "M8-verify-theorem2": "f38b7d6cd51ab1aa73e56ac78e33ecf1636350ff18e03d2026e4ccb5d10475aa",
    "M8-verify-lemma2": "e743dccd34e140ce3d41c5baca4f8cb4a287abb692c972c47c882370810f6dd1",
    "M8-verify-lemma3": "f3f1fd0b9ed8a3203d040def8da1cafeb8926ee15e1ed0f643a4db96c00a0e08",
    "M8-verify-lemma4": "a7011ed30601ae8216d70b48d3a3d9318727f00c0b4575e28a8a8fad2125153f",
    "M8-verify-eq4": "bcd91fff330f405ffe3432522ae5aa7c680e49d6ff8cb6e569459b4bae1e8891",
    "M8-verify-eq9": "598a569e1d2f9320d03987a03bf99315cdb78f0270748d5c371b0c6199a8a3c5",
    "M8-verify-section5": "8636b1fc8e0d7adb0355fafaccfa0eac8ff8f2a986e0cf070de085fb556df521",
    "M8-verify-factorization": "649af9b91ea7081687adeeaa356228611991c3df8f5339b99041cbe65bb367a1",
    "F2-text-branches": "3d08a25e9870a28363bf3f30c100099a5b0ad809af5c1671a30fe10a8c7e1642",
    "F2-text-tree": "3165224350783f2a4cc0260143aa4f0881a26a71ae12ad0bc966c15ae4933e9f",
    "F2-text-classify": "e6b72bf2f0f7f485bf3e0342049b2d50b115a32e9aa83872f8659465f12979be",
    "F2-text-valueset": "611a8e78ade98c2086196ea342d05d19f7e6385f35ceef727ad37ac477629d0b",
    "F2-text-verify": "a54873953d8dd282e5f27e87ad815582bd7235c93b987b54e6d0bdc338c5431c",
    "F2-text-oracle": "1e73951b79b6b10b4be1355700d832fe6d07bb16f9bfe76526e599c07fd1913f",
    "M6-text-branches": "fabd1b7668c0ae14056e82f3908586f7244a329c0aa8982aaf3a929293ac493e",
    "M6-text-tree": "49ba887a8bf8233f0fef3825c3e0517ef1f616c250a78b8dd31d2ec9e8e64e85",
    "M6-text-valueset": "7db153274e1d12a5dc6772c985d3b5ae7d8f6435effc1d9dcdbc9ae2fd8f7c34",
    "M6-text-verify": "c7ad12f6fcb40b61ff02245019cddd6365b0caee5796cec37172f55ca6d4d688",
    "M6-text-oracle": "1b1c28946a8a05299ddddc147cea90b67742c7a9366d2ce9177939ace47b7784",
    "help": "47df5526ed80d523c3d3e1bce6202f62349d45c374feafc700f6dd87eb229ad7",
    "help-branches": "2a359c01e2c98519ac3aeabfea48b701d6fab2c35bcc4020511435798afc5471",
    "help-tree": "c464c0d1dc8b7506e1e24e19ba1b7cb6b238b09364ded9a748c0034eacfeb895",
    "help-classify": "811f4e2e3d8e9e1a6c86536174af89f991979b04b78c8cb20b21945b6696ab72",
    "help-valueset": "389b826151d1a2d654224bb96a7099eeccf601dd360f71ab987093637d369bd4",
    "help-verify": "9dbfe14edce038d06de155d8756e6447d9e425692d1aa6e77042fe03e3d8e0e0",
    "help-oracle": "800808f8574a8c38f27294f5ee96f204f848d8241a6acf8dddedbfa73149d5d9",
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(case for case, _ in CASES)


@pytest.mark.parametrize("case,argv", CASES, ids=[c for c, _ in CASES])
def test_output_digest(case, argv, monkeypatch):
    # argparse wraps help text at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert output_digest(argv) == GOLDEN[case]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for case, argv in CASES:
        print(f'    "{case}": "{output_digest(argv)}",')
