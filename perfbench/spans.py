"""Span recorder for the traced run.

It times dmtlink from outside: every public function of the layer modules is
wrapped where its callers look it up (``dmtlink.harness.optical_filter``,
``dmtlink.cli.required_osnr``, ...), and the numpy FFT entry points are
wrapped on ``numpy.fft``, which every module reaches through ``np.fft.<fn>``.
Nothing under ``src/`` is edited.  A span has a name, start, end, parent and
run id; spans stay in memory and are written as JSON lines by ``dump``.

Spans are recorded in the process that runs the command only.  Work done in
pool workers is invisible here and shows up as self time of the span that
waits for it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("txdsp", "channel", "rxdsp", "loading", "harness", "cli")
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")
# private entry points traced anyway: one _transmit_once call is one frame,
# i.e. one pass of probe or payload through the chain
PRIVATE = {"harness": ("_transmit_once",)}


def _fft_points(name, args, kwargs):
    """Computed transform size: length of each transform times their number."""
    a = np.asarray(args[0])
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    m = a.shape[axis]
    if n is None:
        n = 2 * (m - 1) if name == "irfft" else m
    return n * (a.size // m)


class Tracer:
    """Installs span wrappers, records spans and summarises them."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, run)
        self._stack = []
        self.run_id = None
        self.fft_points = 0
        self.records = 0  # run_link calls that returned a RunRecord
        self.payload_bits = 0
        self._saved = []

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end, self.run_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_fft(self, name):
        def after(args, kwargs, _result):
            self.fft_points += _fft_points(name, args, kwargs)

        return after

    def _count_record(self, _args, _kwargs, record):
        self.records += 1
        self.payload_bits += sum(r.bits_total for r in record.reports.values())

    def install(self):
        """Replace every traced function at each place it is looked up."""
        named = {}
        for layer in LAYERS:
            mod = sys.modules[f"dmtlink.{layer}"]
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    named[obj] = f"{layer}.{attr}"
        wrappers = {
            fn: self._wrap(
                name, fn, self._count_record if name == "harness.run_link" else None
            )
            for fn, name in named.items()
        }
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dmtlink" or mod_name.startswith("dmtlink."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])
        for fn_name in FFT_FUNCS:
            fn = getattr(np.fft, fn_name)
            self._patch(np.fft, fn_name, self._wrap(f"fft.{fn_name}", fn, self._count_fft(fn_name)))
        # the filter response is rebuilt on every optical_filter call
        spec = sys.modules["dmtlink.channel"].FilterSpec
        self._patch(
            spec,
            "amplitude_response",
            self._wrap("channel.FilterSpec.amplitude_response", spec.amplitude_response),
        )

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def summarise(self):
        """Per span name: calls, inclusive and self seconds."""
        spans = self.spans
        child_time = defaultdict(float)
        for _sid, parent, _name, start, end, _run in spans:
            if parent is not None:
                child_time[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _parent, name, start, end, _run in spans:
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return dict(table)

    def dump(self, path):
        epoch = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, start, end, run in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": run,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start - epoch,
                            "end": end - epoch,
                        }
                    )
                    + "\n"
                )
