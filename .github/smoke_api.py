"""Library smoke checks: CLI commands run through ``cli.main`` in one process.

    python .github/smoke_api.py SMOKE_DIR

SMOKE_DIR holds the inputs that the console-script smoke step of
``.github/workflows/tier1.yml`` writes first: ``refs/`` and ``ests/`` (two
1600-sample sources and their estimates, swapped), ``long_ref.wav``,
``long_est.wav`` and ``long_i0..2.wav`` (30 s at 44.1 kHz), ``eight/`` (eight
1 s, 16 kHz seeded-noise sources and their noisy mixture) and
``rescale.json``. Every command must exit 0, and none may load scipy.
"""

import sys

from sepmetrics import cli

s = sys.argv[1]
args = ["eval", "--ref", s + "/refs/a.wav", "--est", s + "/ests/b.wav", "--legacy-taps", "64"]
# a single-source and a two-interferer legacy eval
assert cli.main(args) == 0
assert cli.main(args + ["--interf", s + "/refs/b.wav", "--interf", s + "/ests/a.wav"]) == 0
# a single-source legacy compare
assert cli.main(["compare", "--ref", s + "/refs/a.wav", "--est", s + "/ests/b.wav",
                 "--legacy-taps", "64"]) == 0
# A 30 s, 44.1 kHz single-source eval at 512 taps (861 blocks of the estimate
# against 862 reference segments, which cover its padded support) and at 1 tap.
long = ["eval", "--ref", s + "/long_ref.wav", "--est", s + "/long_est.wav", "--legacy-taps"]
assert cli.main(long + ["512"]) == 0
assert cli.main(long + ["1"]) == 0
# 300 taps: overlap-save N = 2048, Gohberg-Semencul length 1024 (the smallest
# powers of two >= 1200 and >= 599).
assert cli.main(long + ["300"]) == 0
# A 512-tap eval with three seeded-noise interferers, run twice in one process:
# no block factor outlives its call, so each run builds its own, and the second
# must write the same CSV.
four = long + ["512", "--out", s + "/four.csv"] + [
    a for k in range(3) for a in ("--interf", s + "/long_i%d.wav" % k)]
rows = [(cli.main(four), open(s + "/four.csv").read()) for _ in range(2)]
assert rows[0][0] == 0, rows
assert rows[0] == rows[1], rows
# the --permute eval-set: its assignment solver is numpy code
assert cli.main(["eval-set", "--refs", s + "/refs", "--ests", s + "/ests", "--permute"]) == 0
# a small rescale-sweep experiment
assert cli.main(["experiment", "--spec", s + "/rescale.json", "--out-dir",
                 s + "/rescale_lib"]) == 0
# An 8-source legacy eval (one reference and seven --interf, against their
# mixture) at 512 taps: taps*sources = 4096 = MAX_PROBLEM_SIZE, the largest
# block Levinson factor, so it must pass its backward-error check without the
# pivoted-Cholesky fallback, which would load scipy.
eight = ["eval", "--ref", s + "/eight/s0.wav", "--est", s + "/eight/est.wav",
         "--legacy-taps", "512"] + [
    a for k in range(1, 8) for a in ("--interf", s + "/eight/s%d.wav" % k)]
assert cli.main(eight) == 0
# none of the commands above loaded a scipy module
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
