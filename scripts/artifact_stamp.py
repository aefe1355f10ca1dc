"""Stamp an experiment's outputs with the code and options that made them.

`stamp(args)` is the sha256 over the source of `autodiff.py`, `model.py`
and `train.py` in the cycleformer package that runs, then the script's
parsed options as sorted JSON. Output paths are left out, and a `--corpus`
file counts by its bytes, not its path. An artifact whose stamp differs
from the one the same options give today was made by other code or options.
"""
import hashlib
import json
from pathlib import Path

import cycleformer

CODE_FILES = ("autodiff.py", "model.py", "train.py")
OUTPUT_OPTIONS = ("out_dir", "csv")


def stamp(args) -> str:
    options = {k: v for k, v in vars(args).items() if k not in OUTPUT_OPTIONS}
    if options.get("corpus"):
        options["corpus"] = hashlib.sha256(Path(options["corpus"]).read_bytes()).hexdigest()
    h = hashlib.sha256()
    package = Path(cycleformer.__file__).parent
    for name in CODE_FILES:
        h.update((package / name).read_bytes())
    h.update(json.dumps(options, sort_keys=True).encode())
    return h.hexdigest()
