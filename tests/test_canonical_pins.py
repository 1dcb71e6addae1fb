"""Canonicalization certificates, pinned.

Fast mode involves no search, so its move words are a pure function of
the input system: the digests below must not move.  Validate mode's
words come from a shortest-path search, and searches that break ties
differently pick different words of one length, so only the lengths
are pinned.  Both were recorded before validate mode's window search
moved onto orbits.connect.
"""

import hashlib
import random

import pytest

from hurwitz.normalize import canonical_star, canonicalize
from hurwitz.systems import is_full_monodromy, random_system, serialize

# (d, h, w), draw index, sha256 of start, moves, end and catalog, one per line
FAST_PINS = [
    ((3, 1, 6), 0, "5636cda924c7b5597642b2d5259ff36d024e895f3ef84e134ef97d738bebd6ca"),
    ((3, 1, 6), 1, "e1754782992be732208d65fca28453a7909fc7662646b0dc432bf716b9dec825"),
    ((3, 1, 6), 2, "5110fdf32c314597b1e3d6056c683a9d48c641fcd541a8b8e938315155fca3c3"),
    ((3, 1, 6), 3, "763faf2631e357ba3135b8823d41a7a874a62f1e49c5c9e7f521731a659fea0d"),
    ((3, 1, 6), 4, "9f7162377b20c88a6115375306629785de94b117c720d72aa2edc37446a018e0"),
    ((3, 1, 6), 5, "a189f0497daa0443d0dd0822f181fcd954ae32f4a0a495d61e0af0f5b129bfbe"),
    ((3, 1, 6), 6, "fe0b6d33c03643db3720cbceb11ee7e3552ef56ab3b31d5934e6009e09309729"),
    ((4, 1, 8), 0, "3a21a6a7eeee1d976eeddcad99d0c1a2e70b28b664cedf9dac0fe84b67f5ff9c"),
    ((4, 1, 8), 1, "0080a52c7b27af6bb139a4cf4a80691b18f413d9ba178f233a34c46680bbabf2"),
    ((4, 1, 8), 2, "ab9df7a7433d079d44ff8e51f78e9afdf31d1ed19b7a18a2debc0db095fdd768"),
    ((4, 1, 8), 3, "0ce01f584f97773e65851d56427a7935a82dda3735d012303aea0b81ba9f8286"),
    ((4, 1, 8), 4, "9e19021b30d9270e29a2ed17cec67f92e9f6d56cf0c423a02eb15b1ae0af3165"),
    ((4, 1, 8), 5, "fcedc4c65f3a7a182cfce2f5c053c31d390873f0013b0f5dc99100cf6de15616"),
    ((4, 1, 8), 6, "70c5c957da7c1d35c1923e94a70c083db3417c49f104055edb509adc654f5265"),
    ((5, 2, 10), 0, "f1b4bb89a424dc68797c84e64788cfdc230849a991124f9ea5e47a79af7d0046"),
    ((5, 2, 10), 1, "187fefe03f4bcaaa0636941592b0cc0d3848ab3726c2a09c9b2455d0f29058cd"),
    ((5, 2, 10), 2, "401d4f0af5fa72d933204415575fdc18dcc0f9bc1e69a8a1c4d04fb9a83f8a89"),
    ((5, 2, 10), 3, "e340289925471cf3af04cda7b36e57ae4ecfa93b3354c09b5dba39516b12e13f"),
    ((5, 2, 10), 4, "762513ead31245d439bb27d7b0852e0482690344c710f7b328c526a6b522da8f"),
    ((5, 2, 10), 5, "327d254ac3eefee406bb8f22cbcafe79695f5af17840fa58fcd667b260ba446f"),
    ((5, 2, 10), 6, "d7a2ec7e57c4752283310bb950fbe0f1454d4652b210a387494840e866fe5854"),
    ((3, 3, 6), 0, "02c5e16e3864256eb403bb910f6b02d314bc93ca2bfff9c696c4d2d80623a13d"),
    ((3, 3, 6), 1, "e8cc148e5d0d89d01b1b2d2df7a2b66749ee11c5cd8e961e4862fa8758ae4c98"),
    ((3, 3, 6), 2, "c328f618b19236a0fa2cede497308d659e652b646c40d907fbddcd772307ead2"),
    ((6, 1, 12), 0, "ec7ec5a48d41136087a3ab518a6c3312236c389be76e7254a35c39d7ca0ef46f"),
    ((6, 1, 12), 1, "6b2d63ba1ce04cbb598085c89b131f707ed9d2d3fc74443696ff4a894f5570a3"),
    ((6, 1, 12), 2, "2a052b0bc111fba098b79d193f7a6c812bc53b21ea7f09a9692729807dd3b1d4"),
    ((7, 1, 14), 0, "34e576e16ff97fa9e71b023ff54a28ff9ce6f2753e895fe3c83c5672272ce673"),
    ((7, 1, 14), 1, "ce3ab8416148416a35bebe0e5e99fec00ed73fbf0bc1372a43704de23a0347c5"),
    ((7, 1, 14), 2, "626677db8619214747c5171d721895b6f5e52ca357146278f11908658e769508"),
]


@pytest.mark.parametrize("params,k,digest", FAST_PINS)
def test_fast_certificate_pinned(params, k, digest):
    rng = random.Random("fastpin:%d:%d:%d:%d" % (params + (k,)))
    form, cert = canonicalize(random_system(*params, rng, is_full_monodromy), mode="fast")
    assert serialize(form) == cert.end == serialize(canonical_star(*params))
    text = "\n".join((cert.start, cert.moves, cert.end, cert.catalog))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# (d, h, w), the move count of each validate-mode certificate by draw index
VALIDATE_LENGTHS = [
    ((3, 1, 6), [13, 24, 34, 8]),
    ((3, 0, 6), [5, 7, 6, 7]),
    ((4, 1, 8), [57, 51, 42, 54]),
    ((2, 2, 4), [1, 3, 3, 2]),
]


@pytest.mark.parametrize("params,lengths", VALIDATE_LENGTHS)
def test_validate_word_lengths_pinned(params, lengths):
    for k, length in enumerate(lengths):
        rng = random.Random("validate:%d:%d:%d:%d" % (params + (k,)))
        _, cert = canonicalize(random_system(*params, rng, is_full_monodromy), mode="validate")
        tokens = cert.moves.split()
        assert len(tokens) == length
        assert all(token[0] in "BP" for token in tokens)
        assert serialize(cert.replay()) == serialize(canonical_star(*params))
