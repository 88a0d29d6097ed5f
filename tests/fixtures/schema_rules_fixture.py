"""Event-schema lint fixture: deliberate DL201/DL202 violations.

This file is never imported; ``tests/test_schema.py`` lints it and
asserts the exact set of findings.  Line numbers matter — keep the
violations where they are or update the expectations.
"""
from repro.obs.tracebus import BUS


def emit_violations(plane, channel):
    ids = {"plane": plane, "channel": channel}
    BUS.emit("flash", "raed", 0.0, 1.0, ids, None)  # DL201: undeclared event
    BUS.emit("flash", "read", 0.0, 1.0, {"plane": plane}, None)  # DL201: missing key
    BUS.emit("flash", "read", 0.0, 1.0, {"plane": plane, "channel": channel, "voltage": 3}, None)  # DL201: extra key
    BUS.emit("flash", "read", 0.0, 1.0, ids, None, "i")  # DL201: wrong phase
    BUS.emit("telemetry", "boot", 0.0, 0.0, None, None)  # DL201: undeclared category


def consume_undeclared_name(event):
    return event.category == "flash" and event.name == "raed"  # DL202


def consume_undeclared_category(event):
    return event.category == "telemetry"  # DL202


def consume_undeclared_key(event):
    args = event.args or {}
    if event.category == "flash":
        return args.get("voltage")  # DL202
    return None


def clean_consumer(event):
    if event.category == "flash" and event.name == "read":
        return (event.args or {}).get("plane")
    return None


class FieldConsumer:
    def trace_emit(self, category, name, ts_us, duration_us=0.0, args=None, track=None, ph="X"):
        if category == "flash" and name == "raed":  # DL202: the parameters are the event's fields
            return self._on_read(args)
        return None

    def _on_read(self, args):
        return args.get("plane")
