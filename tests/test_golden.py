"""Model files and compiled chunk stores pinned byte for byte.

``tests/data/golden-*.foldt`` were learned from the CI quick-start inputs:
300 poker hands (seed 7) and 200 Bongard scenes (seed 7) with a background
program, each with both engines.  Learning them again must give the same
bytes, except for the timings: every meta key ending in ``_seconds`` is
masked before the comparison.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest

from foldt.cli import main
from foldt.generators import GenSpec, generate
from foldt.settings import parse_settings
from foldt.store import load_dataset

DATA = Path(__file__).parent / "data"

POKER_SETTINGS = r"""classes([nothing,pair,two_pairs,three_of_a_kind,full_house,four_of_a_kind]).
rmode(1: (card(-R,-S1), card(R,-S2), S1 \= S2)).
rmode(1: (card(-R,-S1), card(R,-S2), S1 \= S2, card(R,-S3), S1 \= S3, S2 \= S3)).
rmode(1: (card(-R,-S1), card(R,-S2), S1 \= S2, card(R,-S3), S1 \= S3, S2 \= S3,
          card(R,-S4), S1 \= S4, S2 \= S4, S3 \= S4)).
rmode(1: (card(-R1,-T1), card(R1,-T2), T1 \= T2, card(-R2,-U1), R1 \= R2,
          card(R2,-U2), U1 \= U2)).
"""

BONGARD_SETTINGS = """classes([pos,neg]).
rmode(5: triangle(+-V)).
rmode(5: square(+-V)).
rmode(5: circle(+-V)).
rmode(5: inside(+V,+-W)).
rmode(5: inside(-V,+W)).
rmode(5: points(+V,up)).
rmode(5: points(+V,down)).
rmode(5: polygon(+-V)).
rmode(5: doubletriangle(+-V,+-W)).
"""

# points/2 has both scene facts and a clause.
BONGARD_BACKGROUND = r"""doubletriangle(O1,O2) :- triangle(O1), triangle(O2), O1 \= O2.
polygon(O) :- triangle(O).
polygon(O) :- square(O).
points(O,up) :- circle(O).
"""

DOMAINS = {
    "poker": (300, POKER_SETTINGS, None),
    "bongard": (200, BONGARD_SETTINGS, BONGARD_BACKGROUND),
}

_SECONDS = re.compile(r'("[a-z_]*_seconds"):[-+0-9.eE]+')


def _masked(text: str) -> str:
    return _SECONDS.sub(r"\1:0", text)


@pytest.mark.parametrize("algo", ["lds", "classic"])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_model_file_matches_golden(tmp_path, capsys, domain, algo):
    count, settings, background = DOMAINS[domain]
    data, bias, out = tmp_path / "train.kb", tmp_path / "run.s", tmp_path / "m.foldt"
    bias.write_text(settings)
    args = ["learn", "--data", str(data), "--settings", str(bias), "--algo", algo, "--out", str(out)]
    if background is not None:
        bg = tmp_path / "bg.pl"
        bg.write_text(background)
        args += ["--bg", str(bg)]
    assert main(["gen", "--domain", domain, "--count", str(count), "--seed", "7", "--out", str(data)]) == 0
    assert main(args) == 0
    capsys.readouterr()
    golden = (DATA / f"golden-{domain}-{algo}.foldt").read_text()
    assert _SECONDS.search(golden)
    assert _masked(out.read_text()) == _masked(golden)


# The sha256 of ``chunks.bin`` and the ``fingerprint`` of ``meta.json`` for
# 500 generated examples of each domain (seed 11) compiled at G=7, so that the
# last chunk is a partial one.  Each block file is 70-75 kB, more than one
# piece of the file reader.
STORES = {
    "poker": (
        "f3ed0685265c765f51a36724cb56cded36a1ffd380ae859e211aa2f502be6c90",
        "2d4ab1a46750c537a609a71ac3c99b45ca0167e0b1b8bbe59c938242ed36d813",
    ),
    "bongard": (
        "04edf981e2352371d2b502ff0d5fbf411f3d3ea4a6d64042d32a701d2f75d5bd",
        "1f976516812698248e59f9f25dbadb3835642bc7bbf7d3355d21c6792d4781e7",
    ),
}


@pytest.mark.parametrize("domain", sorted(STORES))
def test_compiled_store_matches_pinned_bytes(tmp_path, domain):
    _, settings, _ = DOMAINS[domain]
    data = tmp_path / "train.kb"
    generate(GenSpec(domain, 500, 11), data)
    load_dataset(data, parse_settings(settings), tmp_path / "store", granularity=7)
    chunks = hashlib.sha256((tmp_path / "store" / "chunks.bin").read_bytes()).hexdigest()
    meta = json.loads((tmp_path / "store" / "meta.json").read_text())
    assert (chunks, meta["fingerprint"]) == STORES[domain]
