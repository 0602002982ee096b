"""Configuration parsing and bit-stable result serialization.

Config files are flat INI-style key-value documents with three sections,
all optional: ``[system]``, ``[sweep]`` and ``[solver]``.  Unspecified
keys take the default operating point (N=256 subcarriers, 20 dB receive
SNR, 2 dB target SINR, two OFDMA users capped at 30 dB, L = N/8 taps).
dB is the external unit for receive SNR, target SINR and power caps; all
internal computation is linear.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .allocator import SolverOptions
from .config import CHANNEL_MODELS, RECEIVERS, SystemConfig, db_to_linear
from .errors import ConfigError, InvalidParameterError

# key -> (parser, default); None default means "derived later".
_SYSTEM_KEYS = {
    "subcarriers": ("int", 256),
    "alpha": ("float", 0.2),
    "cdma_users": ("optional_int", None),
    "ofdma_users": ("int", 2),
    "multipath": ("optional_int", None),  # default subcarriers // 8
    "receive_snr_db": ("float", 20.0),
    "target_sinr_db": ("float", 2.0),
    "noise_power": ("float", 1.0),
    "power_cap_db": ("float_list", (30.0,)),
    "receiver": ("choice:" + ",".join(RECEIVERS), "mf"),
    "channel_model": ("choice:" + ",".join(CHANNEL_MODELS), "selective"),
}
_SWEEP_KEYS = {
    "parameter": ("choice:alpha,receive_snr_db", "alpha"),
    "grid": ("grid", None),  # default depends on parameter
    "trials": ("int", 200),
}
_SOLVER_KEYS = {
    "max_iterations": ("int", 5000),
    "gap_tolerance": ("float", 1e-3),
}
_SECTIONS = {"system": _SYSTEM_KEYS, "sweep": _SWEEP_KEYS, "solver": _SOLVER_KEYS}

DEFAULT_GRIDS = {
    "alpha": tuple(np.round(np.arange(0.05, 1.56, 0.10), 10)),
    "receive_snr_db": tuple(float(db) for db in range(4, 31, 2)),
}


@dataclass
class RunSettings:
    """Fully resolved configuration for one CLI invocation."""

    system: SystemConfig
    receiver: str = "mf"
    channel_model: str = "selective"
    sweep_parameter: str = "alpha"
    grid: tuple = ()
    trials: int = 200
    solver: SolverOptions = field(default_factory=SolverOptions)
    raw: dict = field(default_factory=dict, compare=False)


def _parse_grid(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError("grid range needs step > 0 and stop >= start")
        values = np.arange(start, stop + 0.5 * step, step)
        return tuple(float(np.round(v, 12)) for v in values)
    return tuple(float(p) for p in text.split(","))


def _finite(value, text: str, key: str):
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"key {key!r} must be finite, got {text!r}")
    return value


def _parse_value(kind: str, text: str, key: str):
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return _finite(float(text), text, key)
        if kind == "optional_int":
            return int(text) if text else None
        if kind == "float_list":
            return _finite(tuple(float(p) for p in text.split(",")), text, key)
        if kind == "grid":
            return _finite(_parse_grid(text), text, key)
        if kind.startswith("choice:"):
            choices = kind.split(":", 1)[1].split(",")
            if text not in choices:
                raise ConfigError(f"key {key!r} must be one of {choices}, got {text!r}")
            return text
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"could not parse value for key {key!r}: {exc}") from exc
    raise ConfigError(f"unhandled key kind {kind!r}")  # pragma: no cover


def _locate_key(name: str):
    """Resolve a bare or section-qualified key name to (section, key)."""
    if "." in name:
        section, key = name.split(".", 1)
        if section not in _SECTIONS or key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {name!r}")
        return section, key
    hits = [(s, name) for s, keys in _SECTIONS.items() if name in keys]
    if not hits:
        raise ConfigError(f"unknown key {name!r}")
    if len(hits) > 1:  # pragma: no cover - current schema has no duplicates
        raise ConfigError(f"ambiguous key {name!r}; qualify as section.key")
    return hits[0]


def parse_config(path=None, overrides=()) -> RunSettings:
    """Read a config file (optional) and apply ``key=value`` overrides.

    Raises ConfigError for unknown sections or keys, malformed values and
    violated invariants; the message names the offending key or invariant.
    """
    values = {section: dict() for section in _SECTIONS}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section {section!r}")
            for key, text in parser.items(section):
                if key not in _SECTIONS[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[section][key] = _parse_value(_SECTIONS[section][key][0], text, key)
    for item in overrides:
        if isinstance(item, str):
            if "=" not in item:
                raise ConfigError(f"override must look like key=value, got {item!r}")
            name, text = item.split("=", 1)
        else:
            name, text = item
        section, key = _locate_key(name.strip())
        values[section][key] = _parse_value(_SECTIONS[section][key][0], str(text), key)

    resolved = {
        section: {
            key: values[section].get(key, default) for key, (_, default) in keys.items()
        }
        for section, keys in _SECTIONS.items()
    }
    system = resolved["system"]
    if system["multipath"] is None:
        system["multipath"] = max(1, system["subcarriers"] // 8)
    if resolved["sweep"]["grid"] is None:
        resolved["sweep"]["grid"] = DEFAULT_GRIDS[resolved["sweep"]["parameter"]]

    sigma2 = system["noise_power"]
    caps_db = system["power_cap_db"]
    if len(caps_db) == 1:
        caps_db = caps_db * system["ofdma_users"]
    if len(caps_db) != system["ofdma_users"]:
        raise ConfigError("power_cap_db must list one cap, or one per OFDMA user")
    try:
        cfg = SystemConfig(
            n_subcarriers=system["subcarriers"],
            alpha=system["alpha"],
            cdma_users=system["cdma_users"],
            ofdma_users=system["ofdma_users"],
            multipath_taps=system["multipath"],
            q=db_to_linear(system["receive_snr_db"]) * sigma2,
            sigma2=sigma2,
            beta_star=db_to_linear(system["target_sinr_db"]),
            power_caps=tuple(db_to_linear(db) * sigma2 for db in caps_db),
        )
        solver = resolved["solver"]
        options = SolverOptions(
            max_iterations=solver["max_iterations"],
            gap_tolerance=solver["gap_tolerance"],
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc
    sweep = resolved["sweep"]
    if sweep["trials"] < 1:
        raise ConfigError("invariant violated: trials >= 1")
    grid = tuple(sweep["grid"])
    if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("invariant violated: grid nonempty and strictly increasing")
    return RunSettings(
        system=cfg,
        receiver=system["receiver"],
        channel_model=system["channel_model"],
        sweep_parameter=sweep["parameter"],
        grid=grid,
        trials=sweep["trials"],
        solver=options,
        raw=resolved,
    )


def format_value(value) -> str:
    """Fixed textual form used in CSV cells: 12 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def emit_csv(rows, columns, path):
    """Write rows as UTF-8 CSV with a fixed column order.

    Identical inputs produce byte-identical files: fixed float formatting,
    fixed "\\n" line endings, no timestamps.
    """
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row[col]) for col in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def emit_resolved_config(settings: RunSettings, path):
    """Write the fully resolved configuration; parsing it back is identity."""

    def text(value):
        if value is None:
            return ""
        if isinstance(value, tuple):
            return ",".join(repr(float(v)) for v in value)
        if isinstance(value, float):
            return repr(value)
        return str(value)

    blocks = [
        "\n".join(
            [f"[{section}]"] + [f"{key} = {text(settings.raw[section][key])}" for key in keys]
        )
        for section, keys in _SECTIONS.items()
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n\n".join(blocks) + "\n")
