"""In-memory span tracing of emovox's public functions, from outside src/.

``Tracer.install`` swaps each named function for a timing wrapper under
every name the package's modules look it up by: module globals bound by
``from .x import f``, module-level dicts such as ``features.EXTRACTORS``,
and class attributes for methods.  Each call records a span (name, start,
end, parent span); layer self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute).  "Class.method" names patch the class.
TARGETS = (
    ("audio.load_wav", "emovox.audio", "load_wav"),
    ("audio.resample_to_8k", "emovox.audio", "resample_to_8k"),
    ("audio.detect_speech", "emovox.audio", "detect_speech"),
    ("audio.voiced_segments", "emovox.audio", "voiced_segments"),
    ("dsp.estimate_f0", "emovox.dsp", "estimate_f0"),
    ("dsp.formants_f1_f2", "emovox.dsp", "formants_f1_f2"),
    ("dsp.lsp_from_lpc", "emovox.dsp", "lsp_from_lpc"),
    ("dsp.mfcc_frames", "emovox.dsp", "mfcc_frames"),
    ("functionals.apply_functionals", "emovox.functionals", "apply_functionals"),
    ("features.phonation", "emovox.features.phonation", "phonation_features"),
    ("features.articulation", "emovox.features.articulation", "articulation_features"),
    ("features.prosody", "emovox.features.prosody", "prosody_features"),
    ("features.i2010pc", "emovox.features.i2010pc", "i2010pc_features"),
    ("embeddings.baum_welch_stats", "emovox.embeddings.gmm", "baum_welch_stats"),
    ("embeddings.extract_ivector", "emovox.embeddings.ivector", "extract_ivector"),
    ("embeddings.xvector_forward", "emovox.embeddings.xvector", "xvector_forward"),
    ("embeddings.train_ubm", "emovox.embeddings.gmm", "train_ubm"),
    ("embeddings.train_total_variability", "emovox.embeddings.ivector",
     "train_total_variability"),
    ("cache.get", "emovox.cache", "FeatureCache.get"),
    ("cache.put", "emovox.cache", "FeatureCache.put"),
    ("modelio.read_container", "emovox.modelio", "read_container"),
    ("modelio.write_container", "emovox.modelio", "write_container"),
    ("pipeline.extract_for_manifest", "emovox.pipeline", "extract_for_manifest"),
    ("svm.train_binary_smo", "emovox.svm", "train_binary_smo"),
    ("svm.train_multiclass", "emovox.svm", "train_multiclass"),
    ("svm.decision_scores", "emovox.svm", "decision_scores"),
    ("evaluation.nested_cv", "emovox.evaluation", "nested_cv"),
    ("evaluation.make_folds", "emovox.evaluation", "make_folds"),
)


def _count_outcome(name, result, counts):
    """Counts read off a call's result rather than its arguments."""
    if name == "cache.get":
        counts["cache.hits" if result is not None else "cache.misses"] += 1
    elif name == "pipeline.extract_for_manifest":
        counts["pipeline.rows"] += result.total
    elif name == "svm.train_binary_smo" and not result.converged:
        counts["svm.unconverged"] += 1


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counts[name + "_calls"] += 1
            _count_outcome(name, result, self.counts)
            return result
        return traced

    def install(self):
        """Patch every binding of every target; ``uninstall`` restores them."""
        import importlib

        # The CLI imports the whole package, so every binding exists (and is
        # recorded for uninstall) before any is patched.
        importlib.import_module("emovox.cli")
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((setattr, cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "emovox" and not mod_name.startswith("emovox."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((setattr, mod, key, original))
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((dict.__setitem__, value, k, original))

    def uninstall(self):
        for setter, obj, key, original in reversed(self._undo):
            setter(obj, key, original)
        self._undo.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def self_times(self):
        """Seconds per span name, each span less the spans directly under it."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)
