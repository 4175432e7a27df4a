"""Flat key=value experiment configs.

One key per line, ``key = value``; blank lines and '#' comments ignored.
Unknown keys are rejected so typos fail before a run starts.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List

from . import trainer

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _bool(s) -> bool:
    try:
        return _BOOLS[str(s).strip().lower()]
    except KeyError:
        raise ValueError("expected 1/0, true/false, yes/no or on/off") from None


def _choice(*options: str):
    """Converter accepting only ``options``."""
    def convert(s) -> str:
        s = str(s).strip()
        if s not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return s
    return convert


def _int_list(s) -> tuple:
    s = str(s).strip()
    if not s:
        return ()
    return tuple(int(x) for x in s.split(","))


# TrainConfig field annotation -> converter of its config value
_CONVERTERS = {"str": str, "int": int, "float": float, "bool": _bool}

# key -> (converter, default)
KNOWN_KEYS = {
    # training: the TrainConfig fields and defaults
    **{f.name: (_CONVERTERS[f.type], f.default) for f in fields(trainer.TrainConfig)},
    # model
    "hidden_dims": (_int_list, (500, 500)),
    # dataset
    "dataset": (_choice("synthetic", "mnist"), "synthetic"),
    "mnist_train_images": (str, ""),
    "mnist_train_labels": (str, ""),
    "mnist_test_images": (str, ""),
    "mnist_test_labels": (str, ""),
    "split": (_choice("official", "random"), "official"),
    "train_n": (int, 50000),
    "valid_n": (int, 10000),
    "test_n": (int, 10000),
    "split_seed": (int, 0),
    "synth_D": (int, 100),
    "synth_input_dim": (int, 20),
    "synth_N": (int, 20000),
    "synth_zipf": (float, 1.0),
    "synth_separation": (float, 2.0),
    "synth_seed": (int, 0),
}


class ConfigError(ValueError):
    pass


def default_config() -> Dict[str, object]:
    return {k: default for k, (_, default) in KNOWN_KEYS.items()}


def apply_setting(cfg: Dict[str, object], key: str, raw: str):
    if key not in KNOWN_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    conv, _ = KNOWN_KEYS[key]
    try:
        cfg[key] = conv(raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({e})") from None


def load_config(path: str) -> Dict[str, object]:
    cfg = default_config()
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            apply_setting(cfg, key, raw)
    return cfg


def dump_config(cfg: Dict[str, object]) -> str:
    lines = []
    for k in KNOWN_KEYS:
        v = cfg[k]
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"
