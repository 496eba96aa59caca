"""Config-file loading shared by cell profiles and emulation scenarios.

Two interchangeable on-disk encodings produce the same nested mapping:

* flat key=value text (files not ending in .json): one assignment per
  line, '#' starts a comment, dots in keys nest sections::

      cell.n_sc = 600
      cell.mod_order = 4
      profile.goodput_bps = 30000000
      channel.loss_rate = 0.01
      mode = sim

* JSON with the same structure as nested objects.

Values are coerced in order: int, float, true/false, string. A cell-only
file may either use the `cell.` prefix or put the fields at top level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .cell import CellConfig, require_ints
from .channel import ChannelSpec
from .emulation import TrafficProfile
from .wire import DEFAULT_MAX_DATAGRAM, chunk_count


def _coerce(raw: str) -> Any:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def parse_kv_text(text: str) -> Dict[str, Any]:
    """Parse key=value lines into a nested dict (dotted keys nest)."""
    root: Dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"line {lineno}: {part!r} is both value and section")
        node[parts[-1]] = _coerce(value.strip())
    return root


def load_config_file(path: Union[str, Path]) -> Dict[str, Any]:
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: top-level JSON value must be an object")
        return data
    return parse_kv_text(text)


_CELL_FIELDS = {f.name for f in fields(CellConfig)}


def cell_config_from_dict(data: Dict[str, Any]) -> CellConfig:
    if "cell" in data and isinstance(data["cell"], dict):
        data = data["cell"]
    unknown = set(data) - _CELL_FIELDS
    if unknown:
        raise ValueError(f"unknown cell config keys: {', '.join(sorted(unknown))}")
    missing = {"n_sc", "n_layers", "n_ant", "mod_order"} - set(data)
    if missing:
        raise ValueError(f"missing cell config keys: {', '.join(sorted(missing))}")
    return CellConfig(**data)


def load_cell_config(path: Union[str, Path]) -> CellConfig:
    return cell_config_from_dict(load_config_file(path))


@dataclass(frozen=True)
class Scenario:
    """A full emulation run: cell, offered traffic, channel and mode."""

    cell: CellConfig
    profile: TrafficProfile
    channel: ChannelSpec = ChannelSpec()
    mode: str = "sim"
    seed: int = 0
    max_datagram: int = DEFAULT_MAX_DATAGRAM
    du_addr: Optional[str] = None
    ru_addr: Optional[str] = None

    def __post_init__(self) -> None:
        require_ints(self, "seed", "max_datagram")
        if self.mode not in ("sim", "socket"):
            raise ValueError(f"mode must be 'sim' or 'socket', got {self.mode!r}")
        if self.mode == "socket" and not (self.du_addr and self.ru_addr):
            raise ValueError("socket mode needs du_addr and ru_addr")
        if self.mode == "socket" and self.channel != ChannelSpec():
            raise ValueError("socket mode cannot apply channel impairments")
        chunk_count(0, self.max_datagram)  # rejects a max_datagram out of range
        if not 2 <= self.cell.soft_bit_width <= 16:
            raise ValueError("the emulator packs soft_bit_width from 2 to 16 bits, "
                             f"got {self.cell.soft_bit_width}")


SCENARIO_KEYS = {f.name for f in fields(Scenario)}


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    unknown = set(data) - SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unknown scenario keys: {', '.join(sorted(unknown))}")
    if "cell" not in data:
        raise ValueError("scenario needs a cell section")
    if "profile" not in data:
        raise ValueError("scenario needs a profile section")
    # The sections become their dataclasses; every other key is passed
    # through, and one left out takes Scenario's default.
    kwargs = dict(data, cell=cell_config_from_dict(dict(data["cell"])),
                  profile=TrafficProfile(**data["profile"]))
    if "channel" in data:
        kwargs["channel"] = ChannelSpec(**data["channel"])
    return Scenario(**kwargs)


def load_scenario(path: Union[str, Path]) -> Scenario:
    return scenario_from_dict(load_config_file(path))
