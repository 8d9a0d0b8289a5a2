"""Flat key-value configuration for the CLI.

Every key is optional; defaults are documented in the README. Device
profile fields can be overridden per class with dotted keys, e.g.
`phone.min_font_px = 11`. Relative paths resolve against the config
file's directory. The CHRONOFUSE_CONFIG environment variable names a
fallback config file when --config is not given.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

from .charts import Normalization
from .errors import ConfigError, read_text
from .ingest import DateOrder
from .render import DEFAULT_PROFILES, DeviceClass, DeviceProfile
from .temporal import Aggregator, Granularity

ENV_CONFIG = "CHRONOFUSE_CONFIG"

# every numeric field of a profile; the device class is chosen by the key's prefix
_PROFILE_FIELDS = {f.name for f in dataclasses.fields(DeviceProfile)} - {"device_class"}


@dataclass
class Config:
    lexicon_path: Path | None = None
    granularity: Granularity = Granularity.DAY
    date_order: DateOrder = DateOrder.DMY
    aggregator: Aggregator = Aggregator.MEAN
    normalization: Normalization = Normalization.MIN_MAX
    out_dir: Path = field(default_factory=lambda: Path("."))
    profiles: dict[DeviceClass, DeviceProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )

    def profile(self, device_class: DeviceClass) -> DeviceProfile:
        return self.profiles[device_class]


def load_config(path: str | Path | None = None) -> Config:
    """Load a config file, less one leading byte order mark; defaults without path or env var."""
    if path is None:
        env = os.environ.get(ENV_CONFIG)
        if not env:
            return Config()
        path = env
    path = Path(path)
    text = read_text(path, ConfigError, "config file").removeprefix("\ufeff")
    return parse_config(text, base_dir=path.parent)


def parse_config(text: str, base_dir: Path | None = None) -> Config:
    base_dir = base_dir or Path(".")
    config = Config()
    overrides: dict[DeviceClass, dict[str, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in stripped.partition("="))
        if not sep or not key:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        _apply_key(config, overrides, key, value, base_dir, lineno)
    for device_class, fields in overrides.items():
        try:
            config.profiles[device_class] = dataclasses.replace(
                config.profiles[device_class], **fields
            )
        except ValueError as exc:
            raise ConfigError(f"bad {device_class.value} profile: {exc}") from exc
    return config


def _apply_key(config, overrides, key, value, base_dir, lineno):
    try:
        if key == "lexicon":
            resolved = (base_dir / value).resolve()
            if not resolved.is_file():
                raise ConfigError(f"config line {lineno}: lexicon file not found: {resolved}")
            config.lexicon_path = resolved
        elif key == "granularity":
            config.granularity = Granularity(value)
        elif key == "date_order":
            config.date_order = DateOrder(value)
        elif key == "aggregator":
            config.aggregator = Aggregator(value)
        elif key == "normalization":
            config.normalization = Normalization(value)
        elif key == "out":
            config.out_dir = (base_dir / value).resolve()
        elif "." in key:
            class_text, _, field_name = key.partition(".")
            device_class = DeviceClass(class_text)
            if field_name not in _PROFILE_FIELDS:
                raise ConfigError(f"config line {lineno}: unknown profile field {field_name!r}")
            overrides.setdefault(device_class, {})[field_name] = float(value)
        else:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
    except ValueError as exc:
        raise ConfigError(f"config line {lineno}: bad value {value!r} for {key!r}: {exc}") from exc
