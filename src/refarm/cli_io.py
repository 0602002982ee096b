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

import numpy as np

from .allocator import SolverOptions
from .config import DEFAULT_POWER_CAP_DB, DEFAULT_RECEIVE_SNR_DB, DEFAULT_TARGET_SINR_DB, SystemConfig, db_to_linear
from .errors import ConfigError, InvalidParameterError
from .experiments import RunSpec

# key -> (parser, default); None default means "derived later".
_SYSTEM_KEYS = {
    "subcarriers": ("int", SystemConfig.n_subcarriers),
    "alpha": ("float", SystemConfig.alpha),
    "ofdma_users": ("int", SystemConfig.ofdma_users),
    "multipath": ("optional_int", SystemConfig.multipath_taps),
    "receive_snr_db": ("float", DEFAULT_RECEIVE_SNR_DB),
    "target_sinr_db": ("float", DEFAULT_TARGET_SINR_DB),
    "noise_power": ("float", SystemConfig.sigma2),
    "power_cap_db": ("float_list", (DEFAULT_POWER_CAP_DB,)),
    "receiver": ("str", RunSpec.receiver),
    "channel_model": ("str", RunSpec.channel_model),
}
_SWEEP_KEYS = {
    "grid": ("grid", RunSpec.grid),  # empty: the sweep's experiments.DEFAULT_GRIDS entry
    "trials": ("int", RunSpec.trials),
}
_SOLVER_KEYS = {
    "max_iterations": ("int", SolverOptions.max_iterations),
    "gap_tolerance": ("float", SolverOptions.gap_tolerance),
}
_SECTIONS = {"system": _SYSTEM_KEYS, "sweep": _SWEEP_KEYS, "solver": _SOLVER_KEYS}

# Each grid point is a full sweep point: one allocation solve plus
# ``trials`` Monte Carlo trials, about a second at the defaults.  A
# thousand points is already hours of work; a larger count is a slip in
# the step (0:1e7:1), and counting before building the grid keeps such a
# slip from allocating terabytes.
MAX_GRID_POINTS = 1000


def _parse_grid(text: str, key: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = _finite(tuple(float(p) for p in parts), text, key)
        if step <= 0 or stop < start:
            raise ConfigError("grid range needs step > 0 and stop >= start")
        # np.arange below yields ceil((stop - start) / step + 0.5) points.
        if (stop - start) / step + 0.5 > MAX_GRID_POINTS:
            raise ConfigError(f"key {key!r} has more than {MAX_GRID_POINTS} points, got {text!r}")
        values = np.arange(start, stop + 0.5 * step, step)
        return tuple(float(np.round(v, 12)) for v in values)
    values = tuple(float(p) for p in text.split(","))
    if len(values) > MAX_GRID_POINTS:
        raise ConfigError(f"key {key!r} has {len(values)} points, more than {MAX_GRID_POINTS}")
    return values


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
            return _finite(_parse_grid(text, key), text, key)
        if kind == "str":
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
    for section, keys in _SECTIONS.items():
        if name in keys:
            return section, name
    raise ConfigError(f"unknown key {name!r}")


def parse_config(path=None, overrides=()) -> RunSpec:
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
        system["multipath"] = cfg.multipath_taps  # as SystemConfig derived it
        return RunSpec(
            system=cfg,
            receiver=system["receiver"],
            channel_model=system["channel_model"],
            grid=resolved["sweep"]["grid"],
            trials=resolved["sweep"]["trials"],
            solver=options,
            raw=_ini_text(resolved),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _ini_text(resolved) -> str:
    """The resolved configuration as INI text; parsing it back is identity."""

    def text(value):
        if isinstance(value, tuple):
            return ",".join(repr(float(v)) for v in value)
        if isinstance(value, float):
            return repr(value)
        return str(value)

    blocks = [
        "\n".join([f"[{section}]"] + [f"{key} = {text(resolved[section][key])}" for key in keys])
        for section, keys in _SECTIONS.items()
    ]
    return "\n\n".join(blocks) + "\n"


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


def emit_resolved_config(spec: RunSpec, path):
    """Write the resolved configuration that ``parse_config`` read into ``spec``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(spec.raw)
