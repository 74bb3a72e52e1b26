import hashlib
import itertools
import subprocess
import sys
from pathlib import Path

from synth_stream import BURST_ENTER, BURST_STAY, synth_lines

SCRIPT = Path(__file__).resolve().parent / "synth_stream.py"


def attacks(lines):
    return [line.split(",")[41] != "normal" for line in lines]


def test_a_stream_without_burst_is_the_stream_it_always_was():
    # sha256 of `synth_stream.py out --rows 2000 --seed 0`, the README's training file.
    text = "".join(line + "\n" for line in synth_lines(2000, seed=0))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "dfe96fcb3831761a1514546ec5dff21bc2b3ddf4e59cd47c42b6318d383aa4d1")


def test_a_bursty_stream_has_episodes_of_about_20_rows_and_an_attack_share_near_0_29():
    kinds = attacks(synth_lines(20_000, seed=0, burst=True))
    runs = [len(list(run)) for attack, run in itertools.groupby(kinds) if attack]
    # The chain's mean episode is 1 / (1 - stay) rows and its attack share enter / (enter + 1 - stay).
    assert abs(sum(runs) / len(runs) - 1 / (1 - BURST_STAY)) < 3
    # (iid rows at that share would give episodes of 1 / (1 - 0.29) ~ 1.4 rows)
    assert abs(sum(kinds) / len(kinds) - BURST_ENTER / (BURST_ENTER + 1 - BURST_STAY)) < 0.05


def test_the_script_writes_a_bursty_stream_and_refuses_an_attack_rate_beside_burst(tmp_path):
    out = tmp_path / "burst.txt"
    subprocess.run([sys.executable, str(SCRIPT), str(out), "--rows", "300", "--seed", "2", "--burst"],
                   check=True, capture_output=True)
    assert out.read_text(encoding="utf-8").splitlines() == synth_lines(300, seed=2, burst=True)
    both = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "x.txt"), "--burst",
                           "--attack-rate", "0.3"], capture_output=True, text=True)
    assert both.returncode == 2 and "not allowed with argument --burst" in both.stderr
