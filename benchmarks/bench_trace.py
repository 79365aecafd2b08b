"""In-memory span tracing of the toolkit's public functions.

:class:`Tracer` replaces every public function of the traced modules
with a wrapper that records a span (name, parent, operation, start,
end, attributes), and puts the originals back on exit.  Calls made
through a module attribute, or through a name a module looked up in
its own globals, go through the wrappers; names bound by ``from x
import f`` in another module are wrapped there too, under the name of
the module that defines them.
"""

import functools
import inspect
import json
import os
import time

TRACED_MODULES = ("circuit", "nvspin", "fieldmap", "coupling", "spectroscopy",
                  "_fileio", "cli")


def _nodes(args, kwargs, result):
    n = 1
    for d in result.b.shape[:3]:
        n *= d
    return {"nodes": n}


def _csv_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"csv_bytes": os.path.getsize(path)}


def _text_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


def _iterations(args, kwargs, result):
    return {"iterations": result.n_iterations}


# Attributes read from a call's arguments and result once its span ends.
PROBES = {
    "fieldmap.biot_savart_map": _nodes,
    "fieldmap.export_map": _csv_bytes,
    "_fileio.atomic_write_text": _text_bytes,
    "spectroscopy.fit_spectrum": _iterations,
}


class Tracer:
    """Context manager that wraps the toolkit's public functions."""

    def __init__(self, package):
        self.modules = [getattr(package, name) for name in TRACED_MODULES]
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("nvcavity.")):
                    continue
                span = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                self._saved.append((module, name, obj))
                setattr(module, name, self._wrap(obj, span))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, obj = self._saved.pop()
            setattr(module, name, obj)
        return False

    def _wrap(self, fn, name):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "name": name, "op": self.op,
                      "parent": self._stack[-1] if self._stack else None,
                      "start": time.perf_counter()}
            self.spans.append(record)
            self._stack.append(record["id"])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record["error"] = type(exc).__name__
                best = getattr(exc, "best", None)  # a fit that did not converge
                if probe is not None and best is not None:
                    record.update(probe(args, kwargs, best))
                raise
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                record.update(probe(args, kwargs, result))
            return result

        return wrapper

    def record(self, name, start, end, **attrs):
        """Add a span timed outside the wrappers, e.g. a child process."""
        self.spans.append({"id": len(self.spans), "name": name, "op": self.op,
                           "parent": None, "start": start, "end": end, **attrs})

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans):
    """{span name: (calls, total seconds, {attribute: total})}."""
    out = {}
    for s in spans:
        calls, seconds, attrs = out.get(s["name"], (0, 0.0, {}))
        for key, value in s.items():
            if key not in ("id", "name", "op", "parent", "start", "end", "error"):
                attrs[key] = attrs.get(key, 0) + value
        out[s["name"]] = (calls + 1, seconds + s["end"] - s["start"], attrs)
    return out


def nested_calls(spans, outer, inner):
    """Mean number of ``inner`` spans below each ``outer`` span."""
    by_id = {s["id"]: s for s in spans}
    n_outer = sum(1 for s in spans if s["name"] == outer)
    count = 0
    for s in spans:
        if s["name"] != inner:
            continue
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] == outer:
                count += 1
                break
            parent = by_id[parent]["parent"]
    return count / n_outer if n_outer else 0.0
