"""The CLI's bytes, pinned.

Each case runs one command line in an empty directory (after the
commands it depends on) and hashes its exit code, stdout, stderr and
every file it writes.  File names are relative, so no temporary path
reaches a digest.  A pin may move only with a CHANGES entry that says
which report changed and why.
"""

import hashlib
import random

import pytest

from hurwitz.cli import main
from hurwitz.perms import identity, transposition
from hurwitz.systems import HurwitzSystem, is_full_monodromy, random_system, serialize

CONNECT = ["connect", "src.txt", "dst.txt", "--out", "cert.json"]
CENSUS_LOG = ["census", "--d", "3", "--h", "0", "--w", "6",
              "--out", "census.jsonl", "--log", "orbit.predlog"]

# name, setup commands, pinned command, files it writes, sha256
PINS = [
    ("verify-census", [], ["verify", "--case", "2,1,4", "--case", "2,2,4", "--out", "verify.csv"],
     ["verify.csv"], "a866d1c7cd03fa37415c610138bacfa82a206626c25d2ecf6d5df52d767562c3"),
    ("verify-sample", [], ["verify", "--case", "3,1,6", "--method", "sample",
                           "--samples", "5", "--seed", "9"],
     [], "b7019b8af38d167d850f51822059441922e28669a931c27df97016aef9971e83"),
    ("explore", [], ["explore", "--d", "3", "--h", "0", "--w", "4", "--out", "explore.jsonl"],
     ["explore.jsonl"], "c52aeec5a880853b871ddca7b285ae5e84e0080dfb0e6e589b74a1c13d7effed"),
    ("explore-filter", [], ["explore", "--d", "3", "--h", "0", "--w", "4",
                            "--moves", "braid", "--filter", "group=2x1"],
     [], "75c0a952c4cabd3fdb0244dd361daf4dfaa54d6729ea026dd0fbc1d1dfecc62b"),
    ("census-log", [], CENSUS_LOG, ["census.jsonl", "orbit.predlog"],
     "3217371bbef2f84c80c5a681ab590a10821b0209508c220b82129a09ad4e6e4b"),
    ("census-budget", [], ["census", "--d", "3", "--h", "0", "--w", "6", "--budget", "50"],
     [], "7a9afb8c213f846fee2bd7415a7c24ddffa7219fe2ffca888fae5f7e838999a2"),
    ("connect", [], CONNECT, ["cert.json"],
     "8559a21e79332fddd800a0d0d70a8ef39990f9839ea4112542453825b7a421ba"),
    ("connect-braid", [], ["connect", "src.txt", "dst.txt", "--moves", "braid"],
     [], "83e2ab8fdf30eb90bc55511b39458372de940e11e1b94ababca398f4003d4ce0"),
    ("replay-certificate", [CONNECT], ["replay", "cert.json"], [],
     "7f3e54ec908af60147617e66a163ec7ca08df00f7f431d576d09504a30bf212c"),
    ("replay-log", [CENSUS_LOG], ["replay", "orbit.predlog"], [],
     "2acf966a0156e06b67a0462e9b6946da3eb7d56a8d45aca964c90e8295015210"),
    ("count", [], ["count", "--out", "count.csv"], ["count.csv"],
     "cf42629a7dc5afbd1389cd5626b6034fcdcd66742db32f125bdcd6617a74ece0"),
    ("validate-moves", [], ["validate-moves", "--samples", "20", "--seed", "2"],
     [], "92f10af48f4bfc57da61b369781134c11dfab06367eac063d105360b7ebefca7"),
    ("validate-moves-zero", [], ["validate-moves", "--samples", "0"], [],
     "42c056e9a9a4d877bcc0b2b5fc954c8043b1ec04ff094c1740b27862b0bcdc83"),
    ("canonicalize", [], ["canonicalize", "sys.txt", "--out", "canon.json"],
     ["canon.json"], "4ec9e3e67e20f2de5238c62df5fc64cb3aade6e52d398509acc8cf9f4fdb8536"),
]


def write_systems(tmp_path):
    """Two tori one handle move apart (braid-disconnected) and one
    full-monodromy (3,1,6) system."""
    t, e = transposition(2, 1, 2), identity(2)
    (tmp_path / "src.txt").write_text(serialize(HurwitzSystem(2, (e, e), (t,) * 4)) + "\n")
    (tmp_path / "dst.txt").write_text(serialize(HurwitzSystem(2, (t, t), (t,) * 4)) + "\n")
    rng = random.Random(5)
    (tmp_path / "sys.txt").write_text(
        serialize(random_system(3, 1, 6, rng, is_full_monodromy)) + "\n")


def run_digest(capsys, argv, files) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    h = hashlib.sha256()
    h.update(b"%d\0" % code)
    h.update(captured.out.encode() + b"\0" + captured.err.encode() + b"\0")
    for name in files:
        with open(name, "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name,setup,argv,files,digest", PINS, ids=[p[0] for p in PINS])
def test_cli_bytes_pinned(tmp_path, monkeypatch, capsys, name, setup, argv, files, digest):
    monkeypatch.chdir(tmp_path)
    write_systems(tmp_path)
    for pre in setup:
        main(list(pre))
    capsys.readouterr()
    assert run_digest(capsys, argv, files) == digest
