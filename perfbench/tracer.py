"""Span tracing of the flatribbon package from outside it.

``Tracer.install`` replaces public functions and methods of the package with
wrappers that record one span per call: (name, start, end, parent, job,
error), where error is the class name of a raised exception or "".  A
function is replaced in every ``flatribbon`` module that binds it, so a
caller that imported it by name (``flatribbon.cli.construct_ribbon``,
``flatribbon.energy.mu_field``) is traced as well as the defining module;
methods are replaced on the class that defines them.  Spans are kept in
memory, reduced to per-layer counts and self times, and written out at the
end.  Calls made while no job is open, or while ``paused`` is set (the
output checks), are not recorded.
"""

import contextlib
import functools
import gzip
import importlib
import itertools
import os
import sys
import time
import weakref
from collections import defaultdict

# span name -> (module, function).  Several functions may share one name.
FUNCTIONS = (
    ("curves.arc_length_reparametrize", "flatribbon.curves", "arc_length_reparametrize"),
    ("frames.sampled_scalars", "flatribbon.frames", "sampled_scalars"),
    ("ribbon.mu_field", "flatribbon.ribbon", "mu_field"),
    ("ribbon.construct_ribbon", "flatribbon.ribbon", "construct_ribbon"),
    ("ribbon.max_regular_width", "flatribbon.ribbon", "max_regular_width"),
    ("ribbon.tessellate", "flatribbon.ribbon", "tessellate"),
    ("ribbon.flatness_residuals", "flatribbon.ribbon", "flatness_residuals"),
    ("ribbon.write_obj", "flatribbon.ribbon", "write_obj"),
    ("energy.bending_energy_closed", "flatribbon.energy", "bending_energy_closed"),
    ("energy.bending_energy_quadrature", "flatribbon.energy", "bending_energy_quadrature"),
    ("energy.limit_energy", "flatribbon.energy", "limit_energy"),
    ("angleivp.solved_rotation_field", "flatribbon.angleivp", "solved_rotation_field"),
    ("angleivp.solve_theta", "flatribbon.angleivp", "solve_theta"),
    ("angleivp.rhs", "flatribbon.angleivp", "rhs_prescribed"),
    ("angleivp.rhs", "flatribbon.angleivp", "rhs_same_angle"),
    ("numerics.simpson_uniform", "flatribbon.numerics", "simpson_uniform"),
    ("numerics.central_difference", "flatribbon.numerics", "central_difference"),
    ("config.parse_config", "flatribbon.config", "parse_config"),
    ("config.build_curve", "flatribbon.config", "build_curve"),
    ("config.write_csv", "flatribbon.config", "write_csv"),
    ("cli.main", "flatribbon.cli", "main"),
)

# span name -> (module, class, method)
METHODS = (
    ("curves.raw_parameter", "flatribbon.curves", "ArcLengthCurve", "raw_parameter"),
    ("curves.derivative", "flatribbon.curves", "ArcLengthCurve", "derivative"),
    ("frames.scalars", "flatribbon.frames", "NormalField", "scalars"),
    ("frames.rmf_build", "flatribbon.frames", "RotationMinimizingField", "__init__"),
    ("ribbon.ruling", "flatribbon.ribbon", "FlatRibbon", "ruling"),
)

FIELD_EVAL = "frames.field_eval"  # value/derivative/frame of every NormalField class
SAMPLED_EVAL = "frames.sampled_eval"  # the evaluator that sampled_scalars returns
OUTPUT_PATH_ARG = {"ribbon.write_obj": 1, "config.write_csv": 0}  # positional path of written files
JOB = "job"


class Tracer:
    def __init__(self):
        self.spans = []
        self.bytes = defaultdict(int)
        self.paused = False
        self._stack = []
        self._job = None
        self._patches = []
        self._scalar_keys = set()
        self._field_ids = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._epoch = time.perf_counter()

    # ---- recording -------------------------------------------------------

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _exit(self, index, name, start, error):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start - self._epoch, end - self._epoch, parent, self._job, error)

    @contextlib.contextmanager
    def job(self, job_id):
        """Open the root span of one job; layer spans inside it become its children."""
        self._job = job_id
        index = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(index, JOB, start, "")
            self._job = None

    def _wrap(self, name, fn):
        tracer = self
        path_arg = OUTPUT_PATH_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused or tracer._job is None:
                return fn(*args, **kwargs)
            if name == "frames.scalars":
                tracer._note_scalars(args[0], args[1])
            index = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(index, name, start, type(exc).__name__)
                raise
            tracer._exit(index, name, start, "")
            if path_arg is not None:
                tracer.bytes[name] += os.path.getsize(args[path_arg])
            if name == "frames.sampled_scalars":
                result = tracer._wrap(SAMPLED_EVAL, result)
            return result

        return traced

    def _note_scalars(self, field, t):
        serial = self._field_ids.get(field)
        if serial is None:
            serial = self._field_ids[field] = next(self._serials)
        self._scalar_keys.add((serial, float(t)))

    # ---- patching ----------------------------------------------------------

    def _patch(self, owner, attr, name):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self):
        importlib.import_module("flatribbon.cli")
        package = [m for key, m in sys.modules.items() if key == "flatribbon" or key.startswith("flatribbon.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            for mod in package:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, name)
        for name, module, cls, attr in METHODS:
            self._patch(getattr(importlib.import_module(module), cls), attr, name)
        frames = importlib.import_module("flatribbon.frames")
        for value in list(vars(frames).values()):
            if isinstance(value, type) and issubclass(value, frames.NormalField):
                for attr in ("value", "derivative", "frame"):
                    if attr in value.__dict__:
                        self._patch(value, attr, FIELD_EVAL)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- reduction ---------------------------------------------------------

    def layer_stats(self):
        """{span name: {"calls", "self_s", "failed"}}, self time = span minus child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
        for index, (name, start, end, _, _, error) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[index]
            entry["failed"] += bool(error)
        return stats

    def scalars_unique(self):
        return len(self._scalar_keys)

    def write(self, path):
        with gzip.open(path, "wt", newline="\n") as fh:
            fh.write("index,name,start,end,parent,job,error\n")
            for index, (name, start, end, parent, job, error) in enumerate(self.spans):
                fh.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{job},{error}\n")
