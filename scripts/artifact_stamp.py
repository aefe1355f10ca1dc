"""Stamp an experiment's outputs with the code and options that made them.

`stamp(args)` is the sha256 over every `*.py` of the cycleformer package
that runs, each file's name and then its contents, sorted by name (the rule
of perfbench/common.code_fingerprint), then the script's parsed options as
sorted JSON. Output paths are left out, and a `--corpus` file counts by its
bytes, not its path. An artifact whose stamp differs from the one the same
options give today was made by other code or options.
"""
import hashlib
import json
from pathlib import Path

import cycleformer

OUTPUT_OPTIONS = ("out_dir", "csv")


def stamp(args) -> str:
    options = {k: v for k, v in vars(args).items() if k not in OUTPUT_OPTIONS}
    if options.get("corpus"):
        options["corpus"] = hashlib.sha256(Path(options["corpus"]).read_bytes()).hexdigest()
    h = hashlib.sha256()
    for path in sorted(Path(cycleformer.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    h.update(json.dumps(options, sort_keys=True).encode())
    return h.hexdigest()
