"""Run-config text: parsing, canonical serialization, and the round trip."""
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleformer.checkpoint import load_checkpoint
from cycleformer.config import RunConfig, model_config, parse_run_config, serialize_run_config
from cycleformer.errors import ConfigError
from cycleformer.model import ModelConfig
from cycleformer.train import TrainPlan, plan_from_run

FIXED = Path(__file__).resolve().parent.parent / "perfbench" / "fixed"


def config_error(text):
    with pytest.raises(ConfigError) as exc:
        parse_run_config(text)
    return str(exc.value)


def test_comments_and_blank_lines_are_skipped():
    text = "# a run\n\n   \nsteps = 7  # trailing note\n\t# indented comment\nlr=0.5\n"
    assert parse_run_config(text) == RunConfig(steps=7, lr=0.5)
    assert parse_run_config("") == RunConfig()


def test_line_without_equals_and_unknown_key_raise():
    assert config_error("steps=3\nsteps 4\n") == "line 2: expected key=value, got 'steps 4'"
    assert config_error("momentum=0.9\n") == "line 1: unknown key 'momentum'"


@pytest.mark.parametrize(
    "line,key,expected",
    [
        ("share_middle=true", "share_middle", True),
        ("share_middle=TRUE", "share_middle", True),
        ("share_middle=1", "share_middle", True),
        ("share_middle=False", "share_middle", False),
        ("share_middle=0", "share_middle", False),
        ("use_gate=auto", "use_gate", None),
        ("use_gate=AUTO", "use_gate", None),
        ("use_gate=True", "use_gate", True),
        ("use_zero_token=0", "use_zero_token", False),
        ("exit_threshold=none", "exit_threshold", None),
        ("exit_threshold=None", "exit_threshold", None),
        ("exit_threshold=0.25", "exit_threshold", 0.25),
        ("exit_threshold=1e-1", "exit_threshold", 0.1),
        ("lr=2e-3", "lr", 2e-3),
        ("steps=12", "steps", 12),
        ("seed=-3", "seed", -3),
        ("variant=HTC", "variant", "HTC"),
        ("corpus_path=data/a=b.bin", "corpus_path", "data/a=b.bin"),
    ],
)
def test_accepted_spellings(line, key, expected):
    value = getattr(parse_run_config(line + "\n"), key)
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize(
    "line,message",
    [
        ("steps=1.5", "key 'steps': expected an integer, got '1.5'"),
        ("lr=x", "key 'lr': expected a number, got 'x'"),
        ("share_middle=yes", "key 'share_middle': expected true/false, got 'yes'"),
        ("use_gate=maybe", "key 'use_gate': expected true/false, got 'maybe'"),
        ("exit_threshold=hot", "key 'exit_threshold': expected a number or 'none', got 'hot'"),
    ],
)
def test_bad_values_name_the_key_and_the_expected_type(line, message):
    assert config_error(line + "\n") == message


@pytest.mark.parametrize("raw", ["-1", "-0.5", "nan", "-inf"])
def test_exit_threshold_follows_the_exit_policy_rule(raw):
    assert config_error(f"exit_threshold={raw}\n").startswith("exit threshold must be >= 0")


def test_defaults_serialize_every_key_but_an_unset_corpus_path():
    text = serialize_run_config(RunConfig())
    keys = [line.split("=", 1)[0] for line in text.splitlines()]
    assert keys == [f.name for f in fields(RunConfig) if f.name != "corpus_path"]
    assert "use_gate=auto\n" in text and "exit_threshold=none\n" in text
    assert serialize_run_config(RunConfig(corpus_path="c.bin")).endswith("corpus_path=c.bin\n")


def test_fixed_checkpoint_config_round_trips_byte_for_byte():
    text, _ = load_checkpoint(str(FIXED / "ztt_canonical.ckpt"))
    assert serialize_run_config(parse_run_config(text)) == text


# A value of each declared field type that survives serialize -> parse.
_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ0123456789._-/", min_size=1, max_size=12)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
STRATEGIES = {
    "int": st.integers(),
    "float": _FINITE,
    "bool": st.booleans(),
    "str": _TEXT,
    "bool | None": st.none() | st.booleans(),
    "float | None": st.none() | st.floats(min_value=0.0, allow_infinity=False),
    "str | None": st.none() | _TEXT,
}
# The text form of a sample value of each declared field type.
SPELLINGS = {
    "int": ("7", 7),
    "float": ("0.5", 0.5),
    "bool": ("true", True),
    "str": ("HTC", "HTC"),
    "bool | None": ("false", False),
    "float | None": ("0.5", 0.5),
    "str | None": ("x.bin", "x.bin"),
}


def test_every_field_type_has_a_reader():
    for f in fields(RunConfig):
        raw, expected = SPELLINGS[str(f.type)]
        value = getattr(parse_run_config(f"{f.name}={raw}\n"), f.name)
        assert value == expected and type(value) is type(expected), f.name


@given(st.builds(RunConfig, **{f.name: STRATEGIES[str(f.type)] for f in fields(RunConfig)}))
@settings(max_examples=200)
def test_serialize_parse_round_trip(rc):
    text = serialize_run_config(rc)
    assert parse_run_config(text) == rc
    assert serialize_run_config(parse_run_config(text)) == text


def test_model_config_and_plan_read_the_fields_of_the_same_name():
    rc = RunConfig(
        variant="HTC", all_layers=5, loop_count=2, d_model=24, n_heads=3, d_ff=40, vocab=61,
        t_max=12, use_gate=True, use_zero_token=False, early_exit_heads=True,
        tie_embeddings=False, share_middle=True, steps=9, lr=0.25, warmup_frac=0.5,
        weight_decay=0.125, batch=3, grad_accum=2, seed=11,
    )
    cfg = model_config(rc)
    for f in fields(ModelConfig):
        assert getattr(cfg, f.name) == getattr(rc, f.name), f.name
    assert plan_from_run(rc) == TrainPlan(
        steps=9, batch=3, grad_accum=2, lr=0.25, warmup_frac=0.5, weight_decay=0.125, seed=11
    )
    # the only plan settings a run file cannot set
    run_keys = {f.name for f in fields(RunConfig)}
    assert {f.name for f in fields(TrainPlan)} - run_keys == {"log_interval"}
