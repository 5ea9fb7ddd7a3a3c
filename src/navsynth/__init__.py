"""navsynth: synthetic navigation-sequence corpora from clickstream counts, with fidelity evaluations."""

__version__ = "0.1.0"

from .graph import (ClickstreamTable, HyperlinkGraph, Interner, TransitionModel,
                    apply_k_anonymity, build_transition_model, load_clickstream,
                    load_edge_list)
from .sessions import SequenceCorpus, load_corpus, save_corpus
from .synth import PlantedWorldSpec, generate_corpus, generate_planted_world

__all__ = [
    "ClickstreamTable", "HyperlinkGraph", "Interner", "TransitionModel",
    "apply_k_anonymity", "build_transition_model", "load_clickstream",
    "load_edge_list", "SequenceCorpus", "load_corpus", "save_corpus",
    "PlantedWorldSpec", "generate_corpus", "generate_planted_world",
]
