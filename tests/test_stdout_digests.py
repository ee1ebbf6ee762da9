"""Byte stability: the `--json` stdout of fixed commands, pinned by digest.

The commands run every caller of `maps.backtrack` (the map graph behind
`cat` and `contractible`, the walks that fill the fibers and the section
search behind `genus` and `tc`, in both step modes and with one and two
arms, the group enumeration behind `group-scan`), the reference rows of
`verify-paper`, the generated neighbour tables of 4,096-point products
(`group-product`, and `tc -n 4`, whose section check walks the
product's table in place), and the Cayley-table checks. `group-scan -p 4` (cyclic and Klein labellings)
and `group-scan -p 6 --mode strong` were recorded at the commit before
the group enumeration went row by row. Inputs are corpus images, so no
file path reaches the report. `cat` and `contractible` also run on theta
and on the c2 frame of the 3x3 box, whose pieces lift the witnesses of
their folded cores; each image is written to a relative path in a fresh
directory, so only its file name reaches the report. Those four were
recorded at the commit before `nullhomotopy` settled folded domains on
their cores. `tc corpus:H -n 4 --m 6` (translated arms padded past each
track's length) and `genus corpus:interval:2 -n 2 --m 2` (pointwise
two-arm step masks) were recorded at the commit before the wedge step
relation was decided arm by arm. The proved one-piece routes of `tc`
(standing still for n = 1, the contractible base in pointwise mode and
its strong-mode fall-through, arms padded past the contraction, three
arms) were recorded at the commit before every proved section went
through one arm formula and one certifier. The strong-product and
window-group paths (`group-check` and `group-product` with
`--mode strong`, `group-check corpus:zplus`, the strong sum map of
`check-continuity` and the strong-mode note of `tc -n 2`) were recorded
at the commit before the two mode vocabularies became one `strong` flag
and the write-only labels went. `tc corpus:H -n 5` (a 32,768-point
product, its translation sections and their check) was recorded at the
commit before products were built in index space. `cat corpus:cycle:14`,
the largest maximal-set sweep the 14-point limit admits, was recorded at
the commit before the sweep stopped walking the power set. The other
window commands (`group-check` on `mulwin`, `z2plus` and `zplus`
windows in both modes, which covers a window with no invertible point,
and `hom-check` of the projection between windows) were recorded at the
commit before window verdicts went through `maps.continuity_violation`.
`contractible box.txt`, the 10-point c2 image {0..2}x{0..3} minus (1,1)
and (1,3), whose identity needs a map-graph search of depth 3, was
recorded at the commit before that search tested each state for a goal
one step ahead.
`cat corpus:cycle:12` and `cat` on the seed-0 `ring4x4_c2` (the 12-point
frame under c2) and `ring8_tail5` (an 8-cycle with a 5-point tail under
c1) images of `bench/inputs.py` were recorded at the commit before the
admissibility oracle answered whole orbits of the image's automorphism
group.
`group-scan corpus:cycle:4` and `group-scan corpus:cycle:4 --mode strong`,
the scans whose topological tables are serialized as witnesses (8 and 0
of 16), and `hom-check` of the sign embedding into the flip group (an
algebraic isomorphism whose inverse tears) were recorded at the commit
before Cayley-table masks were fitted once per conjugacy class and
associativity was tested on a generating set.
`tc corpus:interval:3 -n 2 --mode strong` was re-recorded when the note
that its contraction section fails the strong relation was no longer
dropped for a base whose category is computed.
A digest changes only with the bytes of the report; when a change means
to alter them, record the new digest and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from ditop.cli import main
from ditop.fileio import serialize_image
from ditop.images import CK, DigitalImage

from helpers import theta_image

DIGESTS = {
    "genus corpus:cycle:14 -n 1 --m 2":
        (0, "8d483c2684a2d979eabead76f57b1d2c67fb0a6bb6473153c63f1b7343647f01"),
    "genus corpus:interval:1 -n 2 --m 1":
        (0, "0dc7754cc7513c065b6430c04202be1e8a29a05b04b46b2ca78eb3c83e3653c8"),
    "genus corpus:cycle:4 -n 1 --m 5 --mode strong":
        (0, "00495c33b1d266bfda359589d13c293a2c5f04bc0d09c9d19c805690bbc58b03"),
    "genus corpus:interval:2 -n 2 --m 3 --mode strong":
        (0, "2eeeedc759edc0b582ac782d006daa83bfbb1420cb782638ccb7686677f3725f"),
    "verify-paper":
        (0, "17ad87a0893b61387787e0b751ecea9072c2ff6820b74ebb2f3754525beced89"),
    "group-scan -p 5":
        (0, "e722091242237cc053704139de97216b8d9369facaaab82dfa2f099a51db3a0d"),
    "cat corpus:H":
        (0, "2205248cda61f7b9c76e2beab68b43ea699e3bd8036531fda37147dfca8b48d9"),
    "contractible corpus:H":
        (2, "33b38bb40b013ad3406a85bd8fe628ad8eb6e6d526c26f073f2ebd910b44f1e3"),
    "tc corpus:H -n 3":
        (0, "ccd9d4e90893629de5f727f0dbec1073c0f327f7234b9ab905069b02ed4badb1"),
    "tc corpus:H -n 4":
        (0, "e6d1b7ad9dfcecd6550291d953f82ef8fc03681349d2a294e74f74cd658950bd"),
    "tc corpus:H -n 5":
        (0, "9fd24ace542facd6cae5fa5d7423a1ce956d5c6ee874563a0c6df4651722dfe4"),
    "tc corpus:H -n 4 --m 6":
        (0, "dfd9a5751ccc36c28e78a38c2686a6ce6e502817244aa0814949e96c12bbd1fe"),
    "genus corpus:interval:2 -n 2 --m 2":
        (0, "f42404f95e891302e403d765ba5277b6bee9220a678e8dd7c553836f3c595893"),
    "tc corpus:interval:3 -n 2":
        (0, "2ff637d5d0d9f26b0973737c27cc36bd9391acbe13b9107e78db2ee1eca8d069"),
    "tc corpus:interval:3 -n 2 --mode strong":
        (0, "b21c8b1b9b543beb5dcf23b1816210f830c8ceb18b2cec7ac900fdb0762c6645"),
    "tc corpus:z2window:0:1:0:2 -n 2 --m 4":
        (0, "da2bf97fd0353004a15c2118c642da4586da9ca546da29c3079770d7d1e8e16e"),
    "tc corpus:cycle:4 -n 3":
        (0, "b71803b4bde02aa3ecf52eb859f43a8d958ca05104a61bf5c9d80cd4620cc7fd"),
    "tc corpus:H -n 1 --m 3":
        (0, "2fa97f2ad66bce6200ffa9d038351bf6d971c73a0a3036e96832f69f68d69444"),
    "group-product corpus:Hrot corpus:Hrot":
        (0, "1d09fbf25f96b190b24ef78f44ed9cc421d2b3ffcccf8fb48a1191ee0f7213ce"),
    "group-check corpus:Hrot":
        (0, "225981566e827bc4d78b5e1940ac118ecb0e468a71d3a1b2395ab35a3dd56f98"),
    "group-scan -p 6":
        (0, "55ff706e5e75fcaaa4516f0e18d06dca9be423080e10e64e8061fd2eddfd16e6"),
    "group-scan -p 4":
        (0, "887744f91cf2d8a173b550b1ec8c5e5487d635c6774c24a094731f19afb62bd7"),
    "group-scan -p 6 --mode strong":
        (0, "235634fa20fa0d510e7af87abcee9c62f587b17d88d12fd704d20b405fa8bc3c"),
    "group-check corpus:Hrot --mode strong":
        (2, "ed344d857e87a14012486f6e6093218a5b03011659acb5f856185fc471a3b1af"),
    "group-check corpus:zplus --mode strong":
        (2, "705d84fbee01c28df8b277bf8104f7d1f6cfcfdf0c3c74aaf336cf6df5afef59"),
    "group-check corpus:zplus":
        (0, "4ee1cb71aca4f32199c7c80934fee1b5950f728147986aa51ae7e80fc42e5a7d"),
    "group-product corpus:Hrot corpus:flip:8 --mode strong":
        (2, "36919555646908299e580909e5063a9eb5a9b86eab209bf22fb64ea74f9d17c9"),
    "check-continuity corpus:sum:0:9:strong":
        (2, "e4b8a06bc1c6ee1d04eb4d927f32f1c9d19c3bfb833926bc30375ec21309f0cb"),
    "tc corpus:H -n 2 --mode strong":
        (0, "9e8e8d0729df824acd8c3de3486cff69808d536bb91860b870b205fc35461745"),
    "cat corpus:cycle:12":
        (0, "ee07577e1b3b6678b816cd08c6fdcc514c1de57f1540359486ab847f715f77ef"),
    "cat corpus:cycle:14":
        (0, "e4a3c0b24ef082ff91a0176ffc426883d9c37de300ab1f8590e3683df74b5e98"),
    "group-check corpus:mulwin":
        (2, "a2f77cf5d213236c9768efe90e6f174ce674fc9cbda73968b921215bb11ac345"),
    "group-check corpus:mulwin:2:3":
        (2, "cac69f77900b759ecf7551f2b7f0661d475e07d79c301d1f4149d062fb832baf"),
    "group-check corpus:mulwin:-2:2 --mode strong":
        (2, "c737b5994cb3132e127224bbeb224975ecea1a7e5ff1b6de8557f2ef1dcae0f2"),
    "group-check corpus:z2plus":
        (0, "305cb17afc10a1ec9fd8382c753dc822e22855904dc0355f89f0abdbe8e529c4"),
    "group-check corpus:z2plus:-1:2:0:3 --mode strong":
        (2, "e3a8ed127a45715052c543a2380face3cdf92114363fac5c263446e6731cbcf9"),
    "group-check corpus:zplus:-4:4 --mode strong":
        (2, "10a413c7a6b39f7dee4db0083956fc520746592686918f8b47b5d8b5f7d2c879"),
    "hom-check corpus:z2plus corpus:zplus proj1":
        (0, "dc572d1741c59487cec10ea486b5531728fdf258172aa89750eabc65f030fae5"),
    "hom-check corpus:mulwin corpus:zplus proj1":
        (2, "ca08b088c723fae14dafb380ed5b6fcc922f1fd950c41fe5c13a6fab78838ee0"),
    "group-scan corpus:cycle:4":
        (0, "666cfa7ccd749de57827f7e521f527bd48b6f1cfffd713ca8fbf054c6dc249b9"),
    "group-scan corpus:cycle:4 --mode strong":
        (0, "d4ded70af0d5d98c32150655477c89f652971d507367899965e188873df757e1"),
    "hom-check corpus:pm1mul corpus:flip:8 corpus:pm1embed":
        (0, "8100e19dda34eef72364f0d3ffd9f46e57725bf35fffefbecef41a8b3536a668"),
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_json_stdout_matches_its_recorded_digest(capsys, command):
    code = main(command.split() + ["--json"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) \
        == DIGESTS[command]


FILE_IMAGES = {
    "theta.txt": theta_image(),
    "frame.txt": DigitalImage(tuple((x, y) for x in range(3) for y in range(3)
                                    if (x, y) != (1, 1)), CK(2)),
    "box.txt": DigitalImage(tuple((x, y) for x in range(3) for y in range(4)
                                  if (x, y) not in ((1, 1), (1, 3))), CK(2)),
    "ring4x4_c2.txt": DigitalImage(tuple((x, y) for x in range(4)
                                         for y in range(4)
                                         if x in (0, 3) or y in (0, 3)),
                                   CK(2)),
    "ring8_tail5.txt": DigitalImage(tuple((x, y) for x in range(3)
                                          for y in range(3)
                                          if (x, y) != (1, 1))
                                    + tuple((x, 1) for x in range(3, 8)),
                                    CK(1)),
}

FILE_DIGESTS = {
    "cat theta.txt":
        (0, "1aeff97e0bc5e45fe06d11b4cbd17504ecf01adc57ff61941b2f136279c26ad5"),
    "contractible theta.txt":
        (2, "da21d41c7726e9c4b6ccc1cfcdf7faab81768a39da99c9914638c7f4e238f3c7"),
    "cat frame.txt":
        (0, "d7ca46c8fe79ab39e98befadf773d2c115037f2a394bf8a7061d2688e089a43b"),
    "contractible frame.txt":
        (0, "9b288db26d0081be2355d90e695e859d0b86d087372f46a3810195ab2b096c4d"),
    "contractible box.txt":
        (0, "36091297f352367439429a12dd2dfab9e65d81be4a84498db4a02cff5ab2772e"),
    "cat ring4x4_c2.txt":
        (0, "955898ce8ee2d9a62ca2da4295e6d5f76619f2fea1962f13a789edaad2b84d79"),
    "cat ring8_tail5.txt":
        (0, "ed0ccbdc878b0ddadd5d4badf825a4b05c11a64bf89215f96a9bb6c24f8e254b"),
}


@pytest.mark.parametrize("command", sorted(FILE_DIGESTS))
def test_json_stdout_on_an_image_file_matches_its_recorded_digest(
        capsys, monkeypatch, tmp_path, command):
    name = command.split()[1]
    (tmp_path / name).write_text(serialize_image(FILE_IMAGES[name]),
                                 encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(command.split() + ["--json"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) \
        == FILE_DIGESTS[command]
