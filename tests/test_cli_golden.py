"""Golden outputs of the command line: every byte a battery of runs prints.

Each case pins the SHA-256 of ``json.dumps([exit code, stdout, stderr])``,
once in plain text and once with ``--json``.  The battery reaches every
subcommand, the label mapping, each exit code and the input errors, so a
change to how the CLI loads, computes or emits shows here as a changed hash.
Take new hashes only for an output change that CHANGES.md lists.
"""

import hashlib
import json

import pytest

from booleancomplex.cli import run

# argv -> (plain text hash, --json hash)
GOLDEN = {
    ("beta", "--family", "A:6", "--method", "recursion,euler"): (
        "0f60bb15ecc4931851bdced8268a950bba69f63951559c3b8fc5d62fadf581e6",
        "827bbedddf346215c97e2cdbdb764115d07f44bcb970b0ec2fa804f7329ecc60",
    ),
    ("beta", "--edges", "0 1;1 2;2 0",
     "--method", "recursion,euler,subset_formula,homology,morse"): (
        "9e21d3ae641d52c24feb21d7e32dc649b242d5f9bcef89d601b055d804182822",
        "f584210d40b0c95bb6e503b71b766d202f7bda8f85b86b9b7aaf102774d1bc04",
    ),
    ("beta", "--edges", "10 20;20 30"): (
        "3ff046083fb09415effa22fde54361d2ecb0c9dd4ee504666549146153307f62",
        "2690e46df23471b1b96845064aa0e9d41149da1710d7010d05910a8c97c52a24",
    ),
    ("beta", "--family", "A:3", "--method", "bogus"): (
        "7a5955ab8af498aa7cbeeb103bf20967a510aa7511e5b4f858aafd696a2ac566",
        "7a5955ab8af498aa7cbeeb103bf20967a510aa7511e5b4f858aafd696a2ac566",
    ),
    ("chi", "--family", "D:7"): (
        "e38b21e61fdcea427d65e9b8a42feafdab39667d1c60e1c1bfad7d7bd535ec37",
        "a8fbdda752b4d65513a440dbae3a856f8ab7798bfa8d422e5a4b6c0245c878af",
    ),
    ("chi", "--family", "delta:22"): (
        "8c8abcda369d54e755f6ce3ca44ac809f0b49b1fac8d786316b9372b5afccddb",
        "8c8abcda369d54e755f6ce3ca44ac809f0b49b1fac8d786316b9372b5afccddb",
    ),
    ("enumerate", "--family", "E:6", "--words"): (
        "e407ebce209b1150a0afcf1c80621866381d36cd3e166364dd522bee9bd8a8de",
        "6e77b5499042d9a0d9eb6bb1a85ce63fd16da170f410fe011843ceeacba91bff",
    ),
    ("enumerate", "--edges", "10 20;20 30;30 40", "--words"): (
        "7b394ea964ac1ad2c3bc5c56b961f083453bccf17ededff54a9ae2a292bd5599",
        "789daad295a3a0d0abc543e98c4a1abf8e16b0265d473ae6131b9b9c4e70e4d9",
    ),
    ("enumerate", "--family", "K:10"): (
        "926775e7aec5cf798d8f1f758da836472d9fd14e92a816cb7b3ed04c27d1337e",
        "926775e7aec5cf798d8f1f758da836472d9fd14e92a816cb7b3ed04c27d1337e",
    ),
    ("matching", "--family", "A:5"): (
        "6cabbab77f2da8e93b6be8064ea4f94e402ebb0cac9c48badedd1b3245831109",
        "aaf71e65d371aa5824c11595c4938baf052d60e57be940f39653dd736b1591d9",
    ),
    ("matching", "--edges", "5 7;7 9;9 5;9 11", "--at-vertex", "9"): (
        "01188d64c2fd3606819b90d71d8d3514470dffebc75af81e7d5688e3261cbd3f",
        "fd781c7bd923527f82f3897bcf2741de97690ab8dc71d5688642d271053aa2ea",
    ),
    ("matching", "--family", "A:3", "--at-vertex", "3"): (
        "95ac949e616e0fed1a56e90f1c76db7c86d9dfe23ba318f4063dad79466336b2",
        "95ac949e616e0fed1a56e90f1c76db7c86d9dfe23ba318f4063dad79466336b2",
    ),
    ("homology", "--family", "cycle:5", "--cycles"): (
        "f6d2d87e48814cd4f492a9893a9d4dac851744c903149574eb83c75b931a480c",
        "165283af6d29cd2e06f4e2045ffeffd6550ee7ed5c829c3795e241e72dc8c832",
    ),
    ("family", "--family", "E:8"): (
        "ddddc9082f3c50bd42c8ae6176c46a3fb4fee92b547d9edaded16fa7bb4ec1f9",
        "1b25a6e4d5ad8ab4846f779927ccf389169bfde504b6e9b074f0aa25d574f9d5",
    ),
    ("family", "--family", "Q:3"): (
        "a550d395964672cc0111abde1db0bd7908d4a87ca6ad8223053171c59f86e72c",
        "a550d395964672cc0111abde1db0bd7908d4a87ca6ad8223053171c59f86e72c",
    ),
    ("crosscheck", "--family", "K:4"): (
        "9235441adbcb47e13fb8b3b3de54c5eecb40cc9f55023ed523c1c0b7302a7e0e",
        "6030599ec9434fba0f1f51d2bfa94bf05e3fac393bd585d98552c443afff0c77",
    ),
    ("crosscheck", "--family", "K:9"): (
        "0783ac58295eed81c5d0339228084592205e32dec4b9c29e39955684d48123c9",
        "6ba9e7e3d486eec4fce3c827847941ce27515df0ca8a02b74a1a37fd71774ed3",
    ),
    ("crosscheck", "--sweep", "4"): (
        "652b46aeb9cff578a3b08fd58faf25234a66d9f0ae700345bfd799e229810d5e",
        "8c8475eb2b3155f81feddc3909de4e258421e37057b415605923c16d1690ae70",
    ),
    ("crosscheck", "--sweep", "9"): (
        "5a7e4d2553aa5af7d5f6a710a7cdb2bd7155fec113f7793189b0c0cf11b55fd1",
        "5a7e4d2553aa5af7d5f6a710a7cdb2bd7155fec113f7793189b0c0cf11b55fd1",
    ),
    ("crosscheck", "--sweep", "3", "--family", "A:3"): (
        "228f392a03e4c089ce194b0ca7544cca2b860fbfb9520538d05f4578a9a0d002",
        "228f392a03e4c089ce194b0ca7544cca2b860fbfb9520538d05f4578a9a0d002",
    ),
    ("beta",): (
        "e3cd70dbf8be302b1be16433ea07bc330813bc4cbda3d08c28a817eff000bd26",
        "e3cd70dbf8be302b1be16433ea07bc330813bc4cbda3d08c28a817eff000bd26",
    ),
    ("beta", "--edges", "one two"): (
        "faad17812a6c2a7efe4ebe6aaf82ebe5828334c70ba3af3d495ccf2f625a211f",
        "faad17812a6c2a7efe4ebe6aaf82ebe5828334c70ba3af3d495ccf2f625a211f",
    ),
    ("homology", "--file", "no/such/graph.txt"): (
        "99793aee7253e18bda94ef21aeb11982398156a0f8eccc6c577058b691bcd7e4",
        "99793aee7253e18bda94ef21aeb11982398156a0f8eccc6c577058b691bcd7e4",
    ),
}


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_output_is_byte_identical(capsys, argv, json_flag):
    code = run(list(argv) + (["--json"] if json_flag else []))
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err]).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[argv][json_flag]
