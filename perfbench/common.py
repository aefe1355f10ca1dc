"""Constants and helpers shared by run.py, worker.py and the fixed-checkpoint
generator.

Only the standard library is imported here: run.py uses this module to
reject a checkout without sources or with a bad checkpoint before it starts
any worker.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cycleformer"
BENCH_DIR = ROOT / "perfbench"
FIXED_DIR = BENCH_DIR / "fixed"
CKPT_PATH = FIXED_DIR / "ztt_canonical.ckpt"
META_PATH = FIXED_DIR / "ztt_canonical.json"
VALID_PATH = FIXED_DIR / "ztt_canonical_valid.bin"
OUT_DIR = ROOT / ".perfbench"  # trace files; ignored by git

# Canonical smoke config (ZTT, L=4, N=3, d=128, h=4, d_ff=512, T=64, B=8,
# exit heads on). Keys are RunConfig fields.
CANONICAL = {
    "variant": "ZTT",
    "all_layers": 4,
    "loop_count": 3,
    "d_model": 128,
    "n_heads": 4,
    "d_ff": 512,
    "t_max": 64,
    "batch": 8,
    "early_exit_heads": True,
}

# The fixed checkpoint was trained on make_synthetic_corpus(CORPUS_BYTES,
# seed=CORPUS_SEED); eval and decode draw their inputs from the validation
# tail of that same corpus, because another seed yields another word list
# the checkpoint has never seen. The tail is committed as VALID_PATH, so a
# change to the corpus generator cannot change those inputs.
CORPUS_BYTES = 200_000
CORPUS_SEED = 0
VALID_FRAC = 0.1

THRESHOLD = 0.5
PROMPT_POOL = 64
PROMPT_LEN = (4, 32)
POOL_SEED = 20_250_217

# One BLAS thread: the single caller's steps are small matmuls, and one
# thread is a count every machine can honour. Recorded in every manifest.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def code_fingerprint() -> str:
    """sha256 over src/cycleformer/*.py, file names and contents, sorted by name."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
