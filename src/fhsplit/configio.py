"""Config-file loading shared by cell profiles and emulation scenarios.

Two interchangeable on-disk encodings produce the same nested mapping:

* flat key=value text (files not ending in .json): one assignment per
  line, '#' starts a comment, dots in keys nest sections::

      cell.n_sc = 600
      cell.mod_order = 4
      profile.goodput_bps = 30000000
      channel.loss_rate = 0.01

* JSON with the same structure as nested objects.

Values are coerced in order: int, float, true/false, string. A cell-only
file may either use the `cell.` prefix or put the fields at top level,
not both. A key set twice is an error in either encoding.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .cell import CellConfig, require_ints
from .channel import ChannelSpec, parse_addr
from .emulation import TrafficProfile
from .llr import check_bit_width
from .wire import DEFAULT_MAX_DATAGRAM, HEADER_LEN, MAX_DATAGRAM


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
    first_line: Dict[str, int] = {}  # key -> line that set it
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
        if key in first_line:
            raise ValueError(f"line {lineno}: {key!r} is already set on line "
                             f"{first_line[key]}")
        first_line[key] = lineno
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"line {lineno}: {part!r} is both value and section")
        if isinstance(node.get(parts[-1]), dict):
            raise ValueError(f"line {lineno}: {parts[-1]!r} is both value and section")
        node[parts[-1]] = _coerce(value.strip())
    return root


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """A JSON object's mapping; raises ValueError for a key given twice."""
    obj: Dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"{key!r} is set twice in one JSON object")
        obj[key] = value
    return obj


def load_config_file(path: Union[str, Path]) -> Dict[str, Any]:
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text, object_pairs_hook=_unique_keys)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: top-level JSON value must be an object")
        return data
    return parse_kv_text(text)


def _check_keys(cls: type, data: Dict[str, Any], what: str) -> None:
    """Raise ValueError naming the keys of data that dataclass cls has no field for,
    then the fields without a default that data lacks."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
    if missing:
        raise ValueError(f"missing {what} keys: {', '.join(sorted(missing))}")


def cell_config_from_dict(data: Dict[str, Any]) -> CellConfig:
    if "cell" in data and isinstance(data["cell"], dict):
        outside = set(data) & {f.name for f in fields(CellConfig)}
        if outside:
            raise ValueError("cell config keys set outside the cell section: "
                             f"{', '.join(sorted(outside))}")
        data = data["cell"]
    _check_keys(CellConfig, data, "cell config")
    return CellConfig(**data)


def load_cell_config(path: Union[str, Path]) -> CellConfig:
    return cell_config_from_dict(load_config_file(path))


@dataclass(frozen=True)
class Scenario:
    """A full emulation run: cell, offered traffic and channel.

    A run that gives both bind addresses runs over UDP sockets; one that
    gives neither is simulated.
    """

    cell: CellConfig
    profile: TrafficProfile
    channel: ChannelSpec = ChannelSpec()
    seed: int = 0
    max_datagram: int = DEFAULT_MAX_DATAGRAM
    du_addr: Optional[str] = None
    ru_addr: Optional[str] = None

    def __post_init__(self) -> None:
        require_ints(self, "seed", minimum=0)
        require_ints(self, "max_datagram", minimum=HEADER_LEN + 1, maximum=MAX_DATAGRAM)
        if (self.du_addr is None) != (self.ru_addr is None):
            raise ValueError("a socket run needs both du_addr and ru_addr")
        if self.du_addr is not None:
            parse_addr(self.du_addr)
            parse_addr(self.ru_addr)
            if self.channel != ChannelSpec():
                raise ValueError("a socket run cannot apply channel impairments or a line rate")
        check_bit_width(self.cell.soft_bit_width, "soft_bit_width")


SCENARIO_KEYS = {f.name for f in fields(Scenario)}


def check_scenario_sections(data: Dict[str, Any]) -> None:
    """Reject a cell, profile or channel entry that is not a mapping, naming it."""
    for name in ("cell", "profile", "channel"):
        if name in data and not isinstance(data[name], dict):
            raise ValueError(f"section {name!r} must be a mapping, "
                             f"got {type(data[name]).__name__}")


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    _check_keys(Scenario, data, "scenario")
    check_scenario_sections(data)
    _check_keys(TrafficProfile, data["profile"], "profile")
    _check_keys(CellConfig, data["cell"], "cell config")  # not a cell file: no cell.cell.
    # The sections become their dataclasses; every other key is passed
    # through, and one left out takes Scenario's default.
    kwargs = dict(data, cell=CellConfig(**data["cell"]),
                  profile=TrafficProfile(**data["profile"]))
    if "channel" in data:
        _check_keys(ChannelSpec, data["channel"], "channel")
        kwargs["channel"] = ChannelSpec(**data["channel"])
    return Scenario(**kwargs)


def load_scenario(path: Union[str, Path]) -> Scenario:
    return scenario_from_dict(load_config_file(path))
