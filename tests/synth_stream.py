"""Seeded synthetic NSL-KDD-format traffic for tests and demos.

Rows follow the 41-feature layout (43 fields with label + difficulty in
nsl-kdd mode, 42 with a period-suffixed label in kdd99 mode). Attacks are
planted as a coherent cluster — SYN-flood-ish flags, high connection
counts, saturated error rates, zero payload — with a small amount of
overlap noise so nothing is perfectly separable. The signal lives in
columns that a label-correlation ranking should find (flag, src_bytes,
logged_in, count, serror rates, same_srv_rate, dst_host_srv_count).

Rows are attacks independently at --attack-rate, or with --burst in episodes: a
two-state chain that enters an attack episode with p = BURST_ENTER after a normal
row and stays in it with p = BURST_STAY, so that episodes last 1 / (1 - 0.95) = 20
rows on average and cover 0.02 / (0.02 + 0.05) ~ 0.29 of the rows. Either way the
row's kind is one rng.random() draw, so a stream without --burst is the same
stream it was before the option.

Run as a script to write a file:

    python tests/synth_stream.py out.txt --rows 2000 --seed 0 --format nsl-kdd [--burst]
"""

from __future__ import annotations

import numpy as np

N_FEATURES = 41

_NORMAL_SERVICES = ["http", "smtp", "ftp_data", "domain_u", "telnet"]
_ATTACK_SERVICES = ["private", "ecr_i", "http"]
_ATTACK_NAMES = ["neptune", "smurf", "portsweep"]
BURST_ENTER, BURST_STAY = 0.02, 0.95


def _fmt_rate(x: float) -> str:
    return f"{min(max(x, 0.0), 1.0):.2f}"


def _normal_features(rng: np.random.Generator) -> list[str]:
    f = ["0"] * N_FEATURES
    f[0] = str(int(rng.exponential(8.0)))
    f[1] = rng.choice(["tcp", "udp", "icmp"], p=[0.75, 0.20, 0.05])
    f[2] = rng.choice(_NORMAL_SERVICES, p=[0.50, 0.15, 0.15, 0.10, 0.10])
    f[3] = rng.choice(["SF", "REJ", "RSTR"], p=[0.96, 0.03, 0.01])
    f[4] = str(200 + int(rng.lognormal(5.0, 0.6)))  # src_bytes
    f[5] = str(300 + int(rng.lognormal(6.0, 0.8)))  # dst_bytes
    f[11] = str(int(rng.random() < 0.85))  # logged_in
    f[22] = str(1 + rng.poisson(6))  # count
    f[23] = str(1 + rng.poisson(4))
    serr = 0.0 if rng.random() < 0.97 else float(rng.uniform(0.0, 0.08))
    f[24] = _fmt_rate(serr)
    f[25] = _fmt_rate(serr)
    f[26] = _fmt_rate(0.0 if rng.random() < 0.97 else rng.uniform(0.0, 0.05))
    f[28] = _fmt_rate(1.0 if rng.random() < 0.9 else rng.uniform(0.8, 1.0))
    f[29] = _fmt_rate(rng.uniform(0.0, 0.05))
    f[31] = str(int(rng.integers(1, 256)))
    f[32] = str(int(rng.integers(180, 256)))  # dst_host_srv_count
    f[33] = _fmt_rate(rng.uniform(0.85, 1.0))
    f[34] = _fmt_rate(rng.uniform(0.0, 0.05))
    f[38] = _fmt_rate(serr)
    return [str(v) for v in f]


def _attack_features(rng: np.random.Generator) -> list[str]:
    f = ["0"] * N_FEATURES
    f[0] = "0"
    f[1] = rng.choice(["tcp", "icmp"], p=[0.7, 0.3])
    f[2] = rng.choice(_ATTACK_SERVICES, p=[0.5, 0.3, 0.2])
    f[3] = rng.choice(["S0", "REJ", "SF"], p=[0.70, 0.25, 0.05])
    f[4] = "0" if rng.random() < 0.7 else str(int(rng.lognormal(10.0, 0.5)))
    f[5] = "0"
    f[11] = str(int(rng.random() < 0.02))
    f[22] = str(300 + int(rng.integers(0, 212)))
    f[23] = str(150 + int(rng.integers(0, 110)))
    serr = float(rng.uniform(0.85, 1.0))
    f[24] = _fmt_rate(serr)
    f[25] = _fmt_rate(serr)
    f[26] = _fmt_rate(0.0 if rng.random() < 0.7 else rng.uniform(0.6, 1.0))
    f[28] = _fmt_rate(rng.uniform(0.0, 0.10))
    f[29] = _fmt_rate(rng.uniform(0.5, 0.9))
    f[31] = "255"
    f[32] = str(int(rng.integers(0, 12)))
    f[33] = _fmt_rate(rng.uniform(0.0, 0.08))
    f[34] = _fmt_rate(rng.uniform(0.6, 1.0))
    f[38] = _fmt_rate(serr)
    return [str(v) for v in f]


def synth_lines(n: int, seed: int = 0, format: str = "nsl-kdd",
                attack_rate: float = 0.35, burst: bool = False) -> list[str]:
    """n record lines in the requested format, deterministic in seed. A row is an
    attack with p = attack_rate, or with burst, BURST_STAY after an attack row and
    BURST_ENTER after a normal one (the first row follows a normal one)."""
    rng = np.random.default_rng(seed)
    lines, attack = [], False
    for _ in range(n):
        p = (BURST_STAY if attack else BURST_ENTER) if burst else attack_rate
        if attack := rng.random() < p:
            feats = _attack_features(rng)
            label = str(rng.choice(_ATTACK_NAMES, p=[0.6, 0.25, 0.15]))
        else:
            feats = _normal_features(rng)
            label = "normal"
        if format == "nsl-kdd":
            lines.append(",".join(feats) + f",{label},{int(rng.integers(0, 22))}")
        else:
            lines.append(",".join(feats) + f",{label}.")
    return lines


def write_stream(path, n: int, seed: int = 0, format: str = "nsl-kdd",
                 attack_rate: float = 0.35, burst: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in synth_lines(n, seed, format, attack_rate, burst):
            fh.write(line + "\n")


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--rows", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("nsl-kdd", "kdd99"), default="nsl-kdd")
    kind = ap.add_mutually_exclusive_group()
    kind.add_argument("--attack-rate", type=float, default=0.35)
    kind.add_argument("--burst", action="store_true",
                      help=f"attacks in episodes: enter with p={BURST_ENTER}, stay with p={BURST_STAY}")
    args = ap.parse_args()
    write_stream(args.out, args.rows, args.seed, args.format, args.attack_rate, args.burst)
    print(f"wrote {args.rows} rows to {args.out}")
