"""navsynth: synthetic navigation-sequence corpora from clickstream counts, with fidelity evaluations."""

__version__ = "0.1.0"

from .graph import (ClickstreamTable, HyperlinkGraph, Interner, TransitionModel,
                    apply_k_anonymity, build_transition_model, load_clickstream,
                    load_edge_list)
from .sessions import (PageviewEvent, NavigationTree, SequenceCorpus, build_trees,
                       corpus_from_trees, load_corpus, reader_key,
                       sample_root_to_leaf, save_corpus)
from .synth import (PlantedWorldSpec, StoppingRule, WalkSpec, generate_corpus,
                    generate_planted_world, generate_sequence)

__all__ = [
    "ClickstreamTable", "HyperlinkGraph", "Interner", "TransitionModel",
    "apply_k_anonymity", "build_transition_model", "load_clickstream",
    "load_edge_list", "PageviewEvent", "NavigationTree", "SequenceCorpus",
    "build_trees", "corpus_from_trees", "load_corpus", "reader_key",
    "sample_root_to_leaf", "save_corpus", "PlantedWorldSpec", "StoppingRule",
    "WalkSpec", "generate_corpus", "generate_planted_world",
    "generate_sequence",
]
