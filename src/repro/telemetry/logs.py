"""Structured logging for the repro runtime (stdlib ``logging`` only).

Everything logs under the ``repro`` logger hierarchy —
``get_logger("runner")`` is ``logging.getLogger("repro.runner")`` — so one
:func:`configure_logging` call controls the whole package.  Two output
modes share the handler:

* **plain** (default) — bare messages, byte-compatible with the historic
  ``print``-based CLI output (the CI jobs grep these lines);
* **JSON** (``--log-json``) — one JSON object per line with ``ts``,
  ``level``, ``logger``, ``message`` plus any ``extra={...}`` fields
  (spec hashes, cache hits), for schedulers that scrape per-cell
  progress.

Unconfigured (library import, no CLI), the ``repro`` logger carries only a
``NullHandler`` and propagates: info/debug lines vanish, warnings surface
through Python's last-resort handler — the quiet-by-default library
contract.  The handler resolves ``sys.stderr`` *at emit time*, so pytest's
``capsys`` and redirected streams always capture it.
"""

from __future__ import annotations

import json
import logging
import sys

__all__ = ["get_logger", "configure_logging", "reset_logging",
           "JsonLogFormatter", "LOG_LEVELS"]

#: accepted ``--log-level`` names, least to most severe.
LOG_LEVELS = ("debug", "info", "warning", "error")

#: LogRecord attributes that are plumbing, not user-supplied ``extra``.
_RESERVED = frozenset(vars(logging.LogRecord("", 0, "", 0, "", (), None)))\
    | {"message", "asctime", "taskName"}


class JsonLogFormatter(logging.Formatter):
    """One JSON object per record; ``extra`` fields become top-level keys."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key in payload:
                continue
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = repr(value)
            payload[key] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload)


class _StderrHandler(logging.Handler):
    """Writes to the *current* ``sys.stderr`` (not the one at setup)."""

    #: marks handlers owned by :func:`configure_logging` for idempotent
    #: reconfiguration.
    _repro_managed = True

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:  # pragma: no cover - logging must never raise
            self.handleError(record)


def get_logger(name: str = "") -> logging.Logger:
    """The package logger for ``name`` (``repro`` itself when empty)."""
    return logging.getLogger(f"repro.{name}" if name else "repro")


def configure_logging(level: str = "info",
                      json_format: bool = False) -> logging.Logger:
    """Install (or replace) the package log handler; returns the logger.

    Idempotent: repeated calls swap the managed handler rather than
    stacking duplicates, and handlers installed by user code are left
    untouched.  ``level`` is one of :data:`LOG_LEVELS`.
    """
    if level not in LOG_LEVELS:
        raise ValueError(f"unknown log level {level!r}; known: {LOG_LEVELS}")
    logger = get_logger()
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_managed", False):
            logger.removeHandler(handler)
    handler = _StderrHandler()
    handler.setFormatter(JsonLogFormatter() if json_format
                         else logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper()))
    logger.propagate = False
    return logger


def reset_logging() -> None:
    """Return the package logger to the unconfigured library default."""
    logger = get_logger()
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_managed", False):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)
    logger.propagate = True


#: library default: silent unless configured (warnings still surface via
#: propagation to the root logger's last-resort handler).
get_logger().addHandler(logging.NullHandler())
